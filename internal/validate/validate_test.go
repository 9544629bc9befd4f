package validate

import (
	"errors"
	"fmt"
	"testing"

	"fastt/internal/core"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
)

// realStrategy computes a genuine FastT strategy for a small model.
func realStrategy(t *testing.T) (*core.Strategy, *device.Cluster) {
	t.Helper()
	c, err := device.SingleServer(2)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	m, err := models.LeNet(64)
	if err != nil {
		t.Fatalf("LeNet: %v", err)
	}
	g, err := graph.BuildDataParallel(m, 2)
	if err != nil {
		t.Fatalf("BuildDataParallel: %v", err)
	}
	st, err := core.ComputeStrategy(g, c, kernels.NewDefaultOracle(c), core.Options{})
	if err != nil {
		t.Fatalf("ComputeStrategy: %v", err)
	}
	return st, c
}

// v100s returns one server of n V100-class GPUs with mem bytes of memory
// each.
func v100s(t *testing.T, n int, mem int64) *device.Cluster {
	t.Helper()
	v100, _ := device.ClassByName(device.ClassV100)
	gpus := make([]string, n)
	for i := range gpus {
		gpus[i] = "gpu"
	}
	c, err := device.NewHeterogeneous(&device.Spec{
		Servers: []device.SpecServer{{GPUs: gpus}},
		Classes: map[string]device.SpecClass{"gpu": {
			MemoryBytes:     mem,
			PeakFLOPS:       v100.PeakFLOPS,
			MemBandwidthBps: v100.MemBandwidth,
			SaturationFLOPs: v100.SaturationFLOPs,
		}},
	})
	if err != nil {
		t.Fatalf("NewHeterogeneous: %v", err)
	}
	return c
}

// TestStrategyAcceptsRealOutput: the search and validation share one memory
// rule (graph.Op.ResidentBytes), so every strategy the search returns passes
// the memory check, and a cell with no room returns
// core.ErrNoFeasiblePlacement: on every catalog model at 2 and 4 GPUs of 16,
// 8 and 4 GiB.
func TestStrategyAcceptsRealOutput(t *testing.T) {
	st, c := realStrategy(t)
	if err := Strategy(st, c, Options{}); err != nil {
		t.Errorf("real strategy rejected: %v", err)
	}
	// The cells whose data-parallel graph fits nowhere.
	infeasible := map[string]bool{
		"VGG-19@2/4GiB": true, "ResNet200@2/4GiB": true, "Bert-large@2/4GiB": true,
	}
	for _, spec := range models.Catalog() {
		for _, gpus := range []int{2, 4} {
			m, err := spec.Build(max(spec.GlobalBatch/gpus, 1))
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			g, err := graph.BuildDataParallel(m, gpus)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			for _, gib := range []int64{16, 8, 4} {
				cell := fmt.Sprintf("%s@%d/%dGiB", spec.Name, gpus, gib)
				c := v100s(t, gpus, gib*device.GiB)
				st, err := core.ComputeStrategy(g, c, kernels.NewDefaultOracle(c),
					core.Options{MaxSplitOps: 2, MaxSyncGroups: 2, Workers: 1})
				switch {
				case infeasible[cell]:
					if !errors.Is(err, core.ErrNoFeasiblePlacement) {
						t.Errorf("%s: err = %v, want ErrNoFeasiblePlacement", cell, err)
					}
				case err != nil:
					t.Errorf("%s: %v", cell, err)
				default:
					if err := Strategy(st, c, Options{}); err != nil {
						t.Errorf("%s: strategy rejected: %v", cell, err)
					}
				}
			}
		}
	}
}

func TestPlacementViolations(t *testing.T) {
	st, c := realStrategy(t)
	g := st.Graph

	short := st.Placement[:len(st.Placement)-1]
	if err := Placement(g, short, c, Options{}); !errors.Is(err, ErrPlacementShape) {
		t.Errorf("short placement: %v", err)
	}

	bad := append([]int(nil), st.Placement...)
	bad[0] = 99
	if err := Placement(g, bad, c, Options{}); !errors.Is(err, ErrDeviceRange) {
		t.Errorf("out-of-range device: %v", err)
	}

	// Break a colocation constraint.
	broken := append([]int(nil), st.Placement...)
	for _, op := range g.Ops() {
		if op.ColocateWith == "" {
			continue
		}
		target, ok := g.OpByName(op.ColocateWith)
		if !ok {
			continue
		}
		broken[op.ID] = 1 - broken[target.ID]
		break
	}
	if err := Placement(g, broken, c, Options{}); !errors.Is(err, ErrColocation) {
		t.Errorf("broken colocation: %v", err)
	}
}

func TestPlacementMemoryViolation(t *testing.T) {
	g := graph.New()
	g.MustAddOp(&graph.Op{Name: "w", Kind: graph.KindMatMul, ParamBytes: 8 * device.GiB})
	c := v100s(t, 1, 4*device.GiB)
	if err := Placement(g, []int{0}, c, Options{}); !errors.Is(err, ErrMemory) {
		t.Errorf("memory violation: %v", err)
	}
	if err := Placement(g, []int{0}, c, Options{SkipMemory: true}); err != nil {
		t.Errorf("SkipMemory still checks: %v", err)
	}
}

func TestOrderViolations(t *testing.T) {
	st, _ := realStrategy(t)
	g := st.Graph

	dup := append([]int(nil), st.Order...)
	dup[1] = dup[0]
	if err := Order(g, dup); !errors.Is(err, ErrOrderShape) {
		t.Errorf("duplicate order entry: %v", err)
	}

	// Swap a producer behind one of its consumers.
	rev := append([]int(nil), st.Order...)
	pos := make([]int, g.NumOps())
	for i, id := range rev {
		pos[id] = i
	}
	e := g.Edges()[0]
	rev[pos[e.From]], rev[pos[e.To]] = rev[pos[e.To]], rev[pos[e.From]]
	if err := Order(g, rev); !errors.Is(err, ErrOrderPrecedence) {
		t.Errorf("precedence violation: %v", err)
	}
}

func TestSplitsViolations(t *testing.T) {
	st, _ := realStrategy(t)
	g := st.Graph

	// A split claiming an op that still exists.
	var existing string
	for _, op := range g.Ops() {
		if op.SplitOf == "" {
			existing = op.Name
			break
		}
	}
	err := Splits(g, []graph.SplitDecision{{OpName: existing, Dim: graph.DimBatch, N: 2}})
	if !errors.Is(err, ErrSplitList) {
		t.Errorf("phantom split: %v", err)
	}

	// A split with the wrong partition count.
	if len(st.Splits) > 0 {
		wrong := st.Splits[0]
		wrong.N++
		if err := Splits(g, []graph.SplitDecision{wrong}); !errors.Is(err, ErrSplitList) {
			t.Errorf("wrong split count: %v", err)
		}
	}
}

func TestStrategyNil(t *testing.T) {
	_, c := realStrategy(t)
	if err := Strategy(nil, c, Options{}); !errors.Is(err, ErrPlacementShape) {
		t.Errorf("nil strategy: %v", err)
	}
}
