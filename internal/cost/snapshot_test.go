package cost

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
)

func snapCluster(t *testing.T) *device.Cluster {
	t.Helper()
	c, err := device.SingleServer(2)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	return c
}

// ladderModel is a model on a V100+T4 cluster (device 0 V100 and device 1
// T4 on server 0, device 2 V100 on server 1) with one observation set per
// rung of the fallback ladder. 1953125 ns is 2^-9 s, so the comm lines are
// exact in binary.
func ladderModel(t *testing.T) (*Model, *device.Cluster) {
	t.Helper()
	c, err := device.NewHeterogeneous(&device.Spec{Servers: []device.SpecServer{
		{GPUs: []string{device.ClassV100, device.ClassT4}},
		{GPUs: []string{device.ClassV100}},
	}})
	if err != nil {
		t.Fatalf("NewHeterogeneous: %v", err)
	}
	m := NewModel(c)
	m.Comp.Observe("a", 0, 8100*time.Microsecond) // V100
	m.Comp.Observe("a", 1, 20*time.Millisecond)   // T4
	m.Comp.Observe("b", 0, 8100*time.Microsecond) // V100 only
	for _, d := range []time.Duration{1000, 1001, 1001} {
		m.Comp.Observe("c", 0, d) // mean 1000.67 ns, frozen as 1000 ns
	}
	// Pair 0->1 on the line 2^-9 s + bytes * 2^-29 s/B.
	m.Link.Observe(0, 1, 1<<20, 2*1953125)
	m.Link.Observe(0, 1, 2<<20, 3*1953125)
	return m, c
}

// ladderEstimators are the live Model and its frozen snapshot: each must
// answer every rung with the same hand-worked value.
func ladderEstimators(m *Model) []struct {
	name string
	Estimator
} {
	return []struct {
		name string
		Estimator
	}{{"Model", m}, {"ReadSnapshot", ReadSnapshot(m)}}
}

// TestCompSnapshotMatchesModel pins every rung of the computation fallback
// ladder to a value worked out by hand, through the live Model and through
// ReadSnapshot. The V100 peak is 15.7 TFLOPS and the T4's 8.1, so
// cross-class scaling from a V100 to a T4 multiplies by 15.7/8.1; a split
// in two scales by 2^-0.85 = 0.5547847…
func TestCompSnapshotMatchesModel(t *testing.T) {
	m, c := ladderModel(t)
	v100, t4, v100b := c.Device(0), c.Device(1), c.Device(2)
	joiner := &device.Device{ID: 3} // not in the model's cluster: no class
	half := func(of string) *graph.Op {
		return &graph.Op{Name: of + "/part0_of2", SplitOf: of, SplitN: 2}
	}
	comp := []struct {
		rung string
		op   *graph.Op
		dev  *device.Device
		want time.Duration
	}{
		{"exact", &graph.Op{Name: "a"}, t4, 20 * time.Millisecond},
		{"same-class", &graph.Op{Name: "a"}, v100b, 8100 * time.Microsecond},
		// 8.1 ms * 15.7/8.1.
		{"cross-class scaled", &graph.Op{Name: "b"}, t4, 15700 * time.Microsecond},
		// (8.1 ms + 20 ms) / 2.
		{"any-device", &graph.Op{Name: "a"}, joiner, 14050 * time.Microsecond},
		// 8.1 ms * 0.5547847… = 4493756.36 ns.
		{"split through same-class", half("a"), v100b, 4493756},
		// 8.1 ms * 0.5547847… * 15.7/8.1 = 8710120.36 ns.
		{"split through cross-class", half("b"), t4, 8710120},
		// 14.05 ms * 0.5547847… = 7794725.54 ns.
		{"split through any-device", half("a"), joiner, 7794725},
		// The frozen mean 1000 ns * 0.5547847… = 554.78 ns; the unfrozen
		// mean 1000.67 ns would give 555.
		{"split of a truncated mean", half("c"), v100b, 554},
		{"zero", &graph.Op{Name: "never-seen"}, v100, 0},
		{"split of an unseen op", half("never-seen"), v100, 0},
	}
	for _, est := range ladderEstimators(m) {
		for _, tc := range comp {
			if got := est.Exec(tc.op, tc.dev); got != tc.want {
				t.Errorf("%s: %s: Exec(%s, dev %d) = %d ns, want %d ns",
					est.name, tc.rung, tc.op.Name, tc.dev.ID, got, tc.want)
			}
		}
	}
}

// TestCommSnapshotMatchesModel pins every rung of the communication
// fallback ladder to a value worked out by hand, through the live Model and
// through ReadSnapshot.
func TestCommSnapshotMatchesModel(t *testing.T) {
	m, c := ladderModel(t)
	v100, t4, v100b := c.Device(0), c.Device(1), c.Device(2)
	comm := []struct {
		rung     string
		bytes    int64
		from, to *device.Device
		want     time.Duration
	}{
		// 2^-9 s + 2^22 B * 2^-29 s/B = 5 * 2^-9 s.
		{"pair", 4 << 20, v100, t4, 5 * 1953125},
		{"pair at zero bytes", 0, v100, t4, 1953125},
		// Pair 1->0 is unobserved: the intra-server class holds 0->1's line.
		{"link class", 4 << 20, t4, v100, 5 * 1953125},
		{"unobserved link class", 4 << 20, v100, v100b, 0},
		{"same device", 4 << 20, v100, v100, 0},
	}
	for _, est := range ladderEstimators(m) {
		for _, tc := range comm {
			if got := est.Comm(tc.bytes, tc.from, tc.to); got != tc.want {
				t.Errorf("%s: %s: Comm(%d, %d->%d) = %d ns, want %d ns",
					est.name, tc.rung, tc.bytes, tc.from.ID, tc.to.ID, got, tc.want)
			}
		}
	}
}

func TestCommSnapshotEmptyModelReadsZero(t *testing.T) {
	c := snapCluster(t)
	s := NewCommModel(c).Snapshot()
	if got := s.Comm(1<<20, c.Device(0), c.Device(1)); got != 0 {
		t.Errorf("empty model snapshot reads %v, want 0", got)
	}
}

// TestReadSnapshot pins the plumbing: a learned Model freezes, anything
// else (here a frozen snapshot itself) passes through unchanged.
func TestReadSnapshot(t *testing.T) {
	c := snapCluster(t)
	m := NewModel(c)
	snap := ReadSnapshot(m)
	if _, ok := snap.(*EstimatorSnapshot); !ok {
		t.Fatalf("ReadSnapshot(Model) = %T, want *EstimatorSnapshot", snap)
	}
	if again := ReadSnapshot(snap); again != snap {
		t.Fatal("snapshot of a snapshot must be the identity")
	}
}

// TestSnapshotMemo pins the memo: an unchanged model hands out the same
// snapshots, a write to one sub-model replaces that sub-model's snapshot
// with one that reflects the write and leaves the old one as it was, and a
// rejected load changes nothing.
func TestSnapshotMemo(t *testing.T) {
	m, c := ladderModel(t)
	op := &graph.Op{Name: "a"}
	v100, t4 := c.Device(0), c.Device(1)
	comp, link := m.Comp.Snapshot(), m.Link.Snapshot()
	if s := ReadSnapshot(m).(*EstimatorSnapshot); s.Comp != comp || s.Link != link {
		t.Fatal("unchanged model returned new snapshots")
	}

	m.Comp.Observe("a", 0, 9900*time.Microsecond) // mean 9 ms
	if m.Link.Snapshot() != link {
		t.Error("a comp write dropped the comm snapshot")
	}
	if got := m.Exec(op, v100); got != 9*time.Millisecond {
		t.Errorf("after Observe: Exec = %v, want 9ms", got)
	}
	if got := comp.Exec(op, v100); got != 8100*time.Microsecond {
		t.Errorf("old snapshot moved to %v, want 8.1ms", got)
	}
	comp = m.Comp.Snapshot()

	m.Link.Observe(1, 0, 1<<20, 1953125) // pair 1->0: proportional, 2^-29 s/B
	if m.Comp.Snapshot() != comp {
		t.Error("a comm write dropped the comp snapshot")
	}
	if got := m.Comm(4<<20, t4, v100); got != 4*1953125 {
		t.Errorf("after Observe: Comm = %d ns, want %d ns", got, 4*1953125)
	}
	if got := link.Comm(4<<20, t4, v100); got != 5*1953125 {
		t.Errorf("old snapshot moved to %d ns, want %d ns", got, 5*1953125)
	}
	comp, link = m.Comp.Snapshot(), m.Link.Snapshot()

	// A load merges 2 samples of mean 3 ms into a's one on the T4 (20 ms),
	// and 2 transfers of 2^20 B in 2^-9 s each on the unobserved pair 2->0.
	v100b := c.Device(2)
	if got := m.Comm(4<<20, v100b, v100); got != 0 {
		t.Fatalf("before ReadJSON: Comm(2->0) = %d ns, want 0", got)
	}
	doc := fmt.Sprintf(`{"comp":[{"name":"a","dev":1,"n":2,"mean":3e6}],`+
		`"comm":[{"from":2,"to":0,"n":2,"sumX":%d,"sumY":%g,"sumXX":%d,"sumXY":%g,"minX":%d,"maxX":%d}]}`,
		2<<20, 2*0.001953125, 2<<40, 2*2048.0, 1<<20, 1<<20)
	if err := m.ReadJSON(strings.NewReader(doc)); err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if m.Comp.Snapshot() == comp || m.Link.Snapshot() == link {
		t.Fatal("ReadJSON kept the old snapshots")
	}
	// (20 ms + 2 * 3 ms) / 3, truncated to the nanosecond.
	if got := m.Exec(op, t4); got != 26*time.Millisecond/3 {
		t.Errorf("after ReadJSON: Exec = %v, want %v", got, 26*time.Millisecond/3)
	}
	if got := m.Comm(4<<20, v100b, v100); got != 4*1953125 {
		t.Errorf("after ReadJSON: Comm(2->0) = %d ns, want %d ns", got, 4*1953125)
	}

	comp, link = m.Comp.Snapshot(), m.Link.Snapshot()
	var before bytes.Buffer
	if err := m.WriteJSON(&before); err != nil {
		t.Fatal(err)
	}
	rejected := `{"comp":[{"name":"a","dev":0,"n":5,"mean":1}],"comm":[{"from":0,"to":9,"n":1}]}`
	if err := m.ReadJSON(strings.NewReader(rejected)); err == nil {
		t.Fatal("ReadJSON accepted a pair outside the cluster")
	}
	if m.Comp.Snapshot() != comp || m.Link.Snapshot() != link {
		t.Error("a rejected ReadJSON dropped the snapshots")
	}
	if got := m.Exec(op, v100); got != 9*time.Millisecond {
		t.Errorf("after a rejected ReadJSON: Exec = %v, want 9ms", got)
	}
	var after bytes.Buffer
	if err := m.WriteJSON(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("a rejected ReadJSON changed the model")
	}
}

// TestSnapshotConcurrentWithObserve drives concurrent writers — Observe and
// ReadJSON — against readers that predict through the live model's memo
// and through ReadSnapshot; the race detector is the assertion.
func TestSnapshotConcurrentWithObserve(t *testing.T) {
	c := snapCluster(t)
	m := NewModel(c)
	op := &graph.Op{Name: "conv1"}
	const doc = `{"comp":[{"name":"conv1","dev":1,"n":2,"mean":5e4,"m2":1}],` +
		`"comm":[{"from":1,"to":0,"n":1,"sumX":1024,"sumY":1e-6,"sumXX":1048576,"sumXY":1.024e-3,"minX":1024,"maxX":1024}]}`
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(3)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.Comp.Observe("conv1", seed%2, time.Duration(i)*time.Microsecond)
				m.Link.Observe(0, 1, int64(i+1)<<10, time.Duration(i+1)*time.Microsecond)
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := m.ReadJSON(strings.NewReader(doc)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = m.Exec(op, c.Device(0))
				_ = m.Comm(1<<20, c.Device(1), c.Device(0))
				s := ReadSnapshot(m)
				_ = s.Exec(op, c.Device(0))
				_ = s.Comm(1<<20, c.Device(0), c.Device(1))
			}
		}()
	}
	wg.Wait()
}
