package cost

import (
	"testing"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
)

// trainedModel returns a Model with enough observations that Exec and Comm
// both return non-trivial, device-dependent values.
func trainedModel(t *testing.T, c *device.Cluster) *Model {
	t.Helper()
	m := NewModel(c)
	m.Comp.Observe("mm", 0, 10*time.Millisecond)
	m.Comp.Observe("mm", 1, 14*time.Millisecond)
	m.Comp.Observe("relu", 0, 2*time.Millisecond)
	for from := 0; from < c.NumDevices(); from++ {
		for to := 0; to < c.NumDevices(); to++ {
			if from == to {
				continue
			}
			lat := time.Duration(10*(from+1)) * time.Microsecond
			observeLine(m.Link, from, to, lat, 12e9, []int64{1 << 12, 1 << 18, 1 << 22})
		}
	}
	return m
}

func TestFillExecRowMatchesEstimator(t *testing.T) {
	c := twoServerCluster(t)
	est := trainedModel(t, c)
	devs := c.Devices()
	for _, op := range []*graph.Op{
		{Name: "mm", Kind: graph.KindMatMul},
		{Name: "relu", Kind: graph.KindRelu},
		{Name: "never_seen", Kind: graph.KindConv2D},
	} {
		row := make([]time.Duration, len(devs))
		FillExecRow(row, est, op, devs)
		for d, dev := range devs {
			if want := est.Exec(op, dev); row[d] != want {
				t.Errorf("op %q device %d: row %v, want Exec %v", op.Name, d, row[d], want)
			}
		}
	}
}

func TestFillCommGridMatchesEstimator(t *testing.T) {
	c := twoServerCluster(t)
	est := trainedModel(t, c)
	devs := c.Devices()
	n := len(devs)
	for _, bytes := range []int64{0, 1 << 10, 1 << 20, 3 << 22} {
		grid := make([]time.Duration, n*n)
		FillCommGrid(grid, est, bytes, devs)
		for f, from := range devs {
			for to := 0; to < n; to++ {
				got := grid[f*n+to]
				if f == to {
					if got != 0 {
						t.Errorf("bytes=%d: diagonal (%d,%d) = %v, want 0", bytes, f, to, got)
					}
					continue
				}
				if want := est.Comm(bytes, from, devs[to]); got != want {
					t.Errorf("bytes=%d: (%d,%d) = %v, want Comm %v", bytes, f, to, got, want)
				}
			}
		}
	}
}

// sameDevLiar claims nonzero same-device transfer cost; FillCommGrid must
// write the diagonal as zero without consulting it (Estimator contract).
type sameDevLiar struct{}

func (sameDevLiar) Exec(*graph.Op, *device.Device) time.Duration             { return time.Millisecond }
func (sameDevLiar) Comm(int64, *device.Device, *device.Device) time.Duration { return time.Second }

func TestFillCommGridZeroDiagonalWithoutEstimator(t *testing.T) {
	c := twoServerCluster(t)
	devs := c.Devices()
	n := len(devs)
	grid := make([]time.Duration, n*n)
	FillCommGrid(grid, sameDevLiar{}, 1<<20, devs)
	for d := 0; d < n; d++ {
		if grid[d*n+d] != 0 {
			t.Errorf("diagonal (%d,%d) = %v, want 0 regardless of estimator", d, d, grid[d*n+d])
		}
	}
	if grid[0*n+1] != time.Second {
		t.Errorf("off-diagonal = %v, want the estimator's value", grid[0*n+1])
	}
}

func TestIsFrozen(t *testing.T) {
	c := twoServerCluster(t)
	m := trainedModel(t, c)
	if IsFrozen(m) {
		t.Error("mutable Model reported frozen; cached tables would mask later observations")
	}
	if !IsFrozen(ReadSnapshot(m)) {
		t.Error("ReadSnapshot(Model) not frozen")
	}
	if !IsFrozen(kernels.NewDefaultOracle(c)) {
		t.Error("kernels.Oracle not frozen")
	}
}

// TestSnapshotTableSurvivesLaterObservations pins the reason IsFrozen gates
// lattice caching: a table filled from a snapshot must keep predicting the
// frozen values even after the live model keeps learning.
func TestSnapshotTableSurvivesLaterObservations(t *testing.T) {
	c := twoServerCluster(t)
	m := trainedModel(t, c)
	snap := ReadSnapshot(m)
	op := &graph.Op{Name: "mm", Kind: graph.KindMatMul}
	devs := c.Devices()

	frozen := make([]time.Duration, len(devs))
	FillExecRow(frozen, snap, op, devs)

	m.Comp.Observe("mm", 0, 500*time.Millisecond) // live model moves on

	again := make([]time.Duration, len(devs))
	FillExecRow(again, snap, op, devs)
	for d := range devs {
		if frozen[d] != again[d] {
			t.Fatalf("device %d: snapshot drifted from %v to %v", d, frozen[d], again[d])
		}
	}
	if live := m.Exec(op, c.Device(0)); live == frozen[0] {
		t.Fatal("live model did not move; test exercises nothing")
	}
}
