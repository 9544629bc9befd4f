package core

import (
	"slices"
	"testing"
	"time"

	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
)

// fakeEst is a deterministic estimator for algorithm tests: execution time
// per op name (homogeneous across devices, falling back to FLOPs as
// nanoseconds), and affine communication on every cross-device pair.
type fakeEst struct {
	exec        map[string]time.Duration
	commPerByte time.Duration
	commLatency time.Duration
}

func (f *fakeEst) Exec(op *graph.Op, _ *device.Device) time.Duration {
	if v, ok := f.exec[op.Name]; ok {
		return v
	}
	// Plumbing ops (variables, aggregations, updates) are cheap fixed-cost
	// kernels; test fixtures encode durations of compute ops directly in
	// FLOPs (nanoseconds).
	switch op.Kind {
	case graph.KindVariable, graph.KindAddN, graph.KindApplyGradient,
		graph.KindInput, graph.KindIdentity:
		return 10 * time.Microsecond
	}
	return time.Duration(op.FLOPs)
}

func (f *fakeEst) Comm(bytes int64, from, to *device.Device) time.Duration {
	if from.ID == to.ID {
		return 0
	}
	return f.commLatency + time.Duration(bytes)*f.commPerByte
}

func clusterN(t *testing.T, n int) *device.Cluster {
	t.Helper()
	c, err := device.SingleServer(n)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	return c
}

// clusterMem is clusterN with mem bytes of memory on every device.
func clusterMem(t *testing.T, n int, mem int64) *device.Cluster {
	t.Helper()
	c := clusterN(t, n)
	for _, d := range c.Devices() {
		d.MemoryBytes = mem
	}
	return c
}

// diamond builds a -> {b, c} -> d with the given per-op exec times and
// 10-byte tensors.
func diamond(t *testing.T) (*graph.Graph, *fakeEst) {
	t.Helper()
	g := graph.New()
	a := g.MustAddOp(&graph.Op{Name: "a", Kind: graph.KindInput, OutputBytes: 10})
	b := g.MustAddOp(&graph.Op{Name: "b", Kind: graph.KindRelu, OutputBytes: 10})
	c := g.MustAddOp(&graph.Op{Name: "c", Kind: graph.KindRelu, OutputBytes: 10})
	d := g.MustAddOp(&graph.Op{Name: "d", Kind: graph.KindAddN})
	g.MustConnect(a, b, 10)
	g.MustConnect(a, c, 10)
	g.MustConnect(b, d, 10)
	g.MustConnect(c, d, 10)
	est := &fakeEst{
		exec: map[string]time.Duration{
			"a": 2 * time.Microsecond,
			"b": 5 * time.Microsecond,
			"c": 3 * time.Microsecond,
			"d": 1 * time.Microsecond,
		},
		commPerByte: 100 * time.Nanosecond, // 10 bytes -> 1us
	}
	return g, est
}

func TestComputeRanksHandComputed(t *testing.T) {
	g, est := diamond(t)
	c := clusterN(t, 2)
	r, err := ComputeRanks(g, c, est)
	if err != nil {
		t.Fatalf("ComputeRanks: %v", err)
	}
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	// rank(d) = 1; rank(b) = 5 + (1 + 1) = 7; rank(c) = 3 + 2 = 5;
	// rank(a) = 2 + max(1+7, 1+5) = 10.
	want := []time.Duration{us(10), us(7), us(5), us(1)}
	for i, w := range want {
		if r.Rank[i] != w {
			t.Errorf("rank[%d] = %v, want %v", i, r.Rank[i], w)
		}
	}
}

func TestComputeRanksSingleDeviceNoComm(t *testing.T) {
	g, est := diamond(t)
	c := clusterN(t, 1)
	r, err := ComputeRanks(g, c, est)
	if err != nil {
		t.Fatalf("ComputeRanks: %v", err)
	}
	// With one device there is no cross-device pair: ranks are pure
	// compute chains. rank(a) = 2 + 5 + 1 = 8us.
	if r.Rank[0] != 8*time.Microsecond {
		t.Errorf("rank[a] = %v, want 8us", r.Rank[0])
	}
	for _, cm := range r.CMax {
		if cm != 0 {
			t.Errorf("single-device CMax = %v, want 0", cm)
		}
	}
}

func TestCriticalPathFollowsLargestRank(t *testing.T) {
	g, est := diamond(t)
	c := clusterN(t, 2)
	r, err := ComputeRanks(g, c, est)
	if err != nil {
		t.Fatalf("ComputeRanks: %v", err)
	}
	cp := criticalPath(t, g, r)
	want := []int{0, 1, 3} // a -> b -> d (b outranks c)
	if len(cp) != len(want) {
		t.Fatalf("critical path = %v, want %v", cp, want)
	}
	for i := range want {
		if cp[i] != want[i] {
			t.Errorf("critical path = %v, want %v", cp, want)
			break
		}
	}
}

func TestCriticalPathEmptyGraph(t *testing.T) {
	g := graph.New()
	r := &Ranks{}
	if cp := criticalPath(t, g, r); cp != nil {
		t.Errorf("critical path of empty graph = %v, want nil", cp)
	}
}

// criticalPath walks g's critical path under r through a fresh context.
func criticalPath(t *testing.T, g *graph.Graph, r *Ranks) []int {
	t.Helper()
	ctx, err := newScheduleContext(g)
	if err != nil {
		t.Fatalf("newScheduleContext: %v", err)
	}
	defer releaseContext(ctx)
	return criticalPathCtx(ctx, r)
}

func TestMaxChainComm(t *testing.T) {
	g, est := diamond(t)
	c := clusterN(t, 2)
	r, err := ComputeRanks(g, c, est)
	if err != nil {
		t.Fatalf("ComputeRanks: %v", err)
	}
	// Longest comm chain: a->b->d or a->c->d, both 2 edges of 1us.
	if got := MaxChainComm(g, r); got != 2*time.Microsecond {
		t.Errorf("MaxChainComm = %v, want 2us", got)
	}
}

func TestRanksStrictlyDecreaseAlongEdges(t *testing.T) {
	g, est := diamond(t)
	c := clusterN(t, 2)
	r, err := ComputeRanks(g, c, est)
	if err != nil {
		t.Fatalf("ComputeRanks: %v", err)
	}
	for _, e := range g.Edges() {
		if r.Rank[e.From] <= r.Rank[e.To] {
			t.Errorf("rank did not decrease along edge %d->%d: %v <= %v",
				e.From, e.To, r.Rank[e.From], r.Rank[e.To])
		}
	}
}

// TestComputeRanksValuesOnly pins ComputeRanks as the rank values of DPOS's
// own ranks without the queue: every value equals computeRanksCtx's, whose
// queue is the sorted one, and ComputeRanks leaves the queue empty.
func TestComputeRanksValuesOnly(t *testing.T) {
	g, est := diamond(t)
	c := clusterN(t, 2)
	r, err := ComputeRanks(g, c, est)
	if err != nil {
		t.Fatalf("ComputeRanks: %v", err)
	}
	ctx, err := newScheduleContext(g)
	if err != nil {
		t.Fatal(err)
	}
	full := computeRanksCtx(ctx, buildLattice(ctx, c.Devices(), cost.ReadSnapshot(est)))
	defer releaseRanks(full)
	for _, f := range []struct {
		name      string
		got, want []time.Duration
	}{
		{"W", r.W, full.W}, {"MinW", r.MinW, full.MinW}, {"CMax", r.CMax, full.CMax},
		{"Rank", r.Rank, full.Rank}, {"RestMin", r.RestMin, full.RestMin},
	} {
		if !slices.Equal(f.got, f.want) {
			t.Errorf("%s = %v, DPOS's ranks have %v", f.name, f.got, f.want)
		}
	}
	if len(r.queue) != 0 {
		t.Errorf("ComputeRanks built a queue of %d ops", len(r.queue))
	}
	if err := checkQueue(ctx, full); err != nil {
		t.Errorf("computeRanksCtx queue: %v", err)
	}
}
