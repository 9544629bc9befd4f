package core

import (
	"fmt"
	"testing"
	"time"

	"fastt/internal/graph"
)

// bottleneckGraph builds in -> big -> out where big dominates the critical
// path and is batch/channel-splittable.
func bottleneckGraph(t *testing.T, bigFLOPs int64) *graph.Graph {
	t.Helper()
	g := graph.New()
	in := g.MustAddOp(&graph.Op{Name: "in", Kind: graph.KindInput, FLOPs: 1000, OutputBytes: 64, Batch: 16})
	big := g.MustAddOp(&graph.Op{
		Name: "big", Kind: graph.KindConv2D, FLOPs: bigFLOPs,
		OutputBytes: 64, Batch: 16, Channels: 16,
	})
	out := g.MustAddOp(&graph.Op{Name: "out", Kind: graph.KindLoss, FLOPs: 1000, OutputBytes: 4, Batch: 16})
	g.MustConnect(in, big, 64)
	g.MustConnect(big, out, 64)
	return g
}

func TestOSDPOSSplitsDominantOp(t *testing.T) {
	g := bottleneckGraph(t, int64(100*time.Microsecond))
	c := clusterN(t, 2)
	est := &fakeEst{commPerByte: time.Nanosecond} // comm ~64ns, negligible
	res, err := OSDPOS(g, c, est, Options{})
	if err != nil {
		t.Fatalf("OSDPOS: %v", err)
	}
	if len(res.Splits) == 0 {
		t.Fatal("dominant op not split")
	}
	dec := res.Splits[0]
	if dec.OpName != "big" {
		t.Errorf("split op = %q, want big", dec.OpName)
	}
	if dec.N != 2 {
		t.Errorf("split count = %d, want 2", dec.N)
	}
	if _, ok := res.Graph.OpByName("big"); ok {
		t.Error("original op still present in rewritten graph")
	}
	// The split halves the dominant 100us op (~50us each in parallel), so
	// the makespan must drop well below the unsplit one.
	unsplit, err := DPOS(g, c, est, Options{})
	if err != nil {
		t.Fatalf("DPOS: %v", err)
	}
	if res.Schedule.Makespan >= unsplit.Makespan {
		t.Errorf("split makespan %v not better than unsplit %v",
			res.Schedule.Makespan, unsplit.Makespan)
	}
}

func TestOSDPOSDoesNotSplitWhenCommDominates(t *testing.T) {
	g := bottleneckGraph(t, int64(100*time.Microsecond))
	c := clusterN(t, 2)
	// Comm so expensive that moving any partition off-device loses.
	est := &fakeEst{commPerByte: 100 * time.Microsecond, commLatency: time.Millisecond}
	res, err := OSDPOS(g, c, est, Options{})
	if err != nil {
		t.Fatalf("OSDPOS: %v", err)
	}
	if len(res.Splits) != 0 {
		t.Errorf("split under dominating comm: %v", res.Splits)
	}
	if res.Graph != g {
		t.Error("graph rewritten although no split accepted")
	}
}

func TestOSDPOSSingleDeviceNoSplit(t *testing.T) {
	g := bottleneckGraph(t, int64(100*time.Microsecond))
	c := clusterN(t, 1)
	res, err := OSDPOS(g, c, &fakeEst{}, Options{})
	if err != nil {
		t.Fatalf("OSDPOS: %v", err)
	}
	if len(res.Splits) != 0 {
		t.Errorf("split with one device: %v", res.Splits)
	}
}

func TestOSDPOSMaxSplitOpsLimit(t *testing.T) {
	// Two sequential big ops; with MaxSplitOps=1 only one may be examined.
	g := graph.New()
	a := g.MustAddOp(&graph.Op{
		Name: "big1", Kind: graph.KindConv2D, FLOPs: int64(100 * time.Microsecond),
		OutputBytes: 64, Batch: 16, Channels: 16,
	})
	b := g.MustAddOp(&graph.Op{
		Name: "big2", Kind: graph.KindConv2D, FLOPs: int64(90 * time.Microsecond),
		OutputBytes: 64, Batch: 16, Channels: 16,
	})
	g.MustConnect(a, b, 64)
	c := clusterN(t, 2)
	est := &fakeEst{commPerByte: time.Nanosecond}
	res, err := OSDPOS(g, c, est, Options{MaxSplitOps: 1})
	if err != nil {
		t.Fatalf("OSDPOS: %v", err)
	}
	if len(res.Splits) > 1 {
		t.Errorf("MaxSplitOps=1 but %d splits accepted", len(res.Splits))
	}
}

func TestOSDPOSEvaluatedCounts(t *testing.T) {
	g := bottleneckGraph(t, int64(100*time.Microsecond))
	c := clusterN(t, 2)
	est := &fakeEst{commPerByte: time.Nanosecond}
	res, err := OSDPOS(g, c, est, Options{})
	if err != nil {
		t.Fatalf("OSDPOS: %v", err)
	}
	if res.Evaluated == 0 {
		t.Error("Evaluated = 0 although candidates exist")
	}
}

func TestComputeStrategyBundles(t *testing.T) {
	g := bottleneckGraph(t, int64(100*time.Microsecond))
	c := clusterN(t, 2)
	est := &fakeEst{commPerByte: time.Nanosecond}
	st, err := ComputeStrategy(g, c, est, Options{})
	if err != nil {
		t.Fatalf("ComputeStrategy: %v", err)
	}
	if st.Graph == nil || len(st.Placement) != st.Graph.NumOps() {
		t.Fatal("strategy placement malformed")
	}
	if len(st.Order) != st.Graph.NumOps() {
		t.Fatal("strategy order malformed")
	}
	if st.Predicted <= 0 {
		t.Error("non-positive predicted makespan")
	}
	if used := st.DevicesUsed(); used < 1 || used > 2 {
		t.Errorf("DevicesUsed = %d", used)
	}
	counts := st.OpsPerDevice(2)
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != st.Graph.NumOps() {
		t.Errorf("OpsPerDevice total = %d, want %d", total, st.Graph.NumOps())
	}
}

func TestComputePlacementOnlyNoSplits(t *testing.T) {
	g := bottleneckGraph(t, int64(100*time.Microsecond))
	c := clusterN(t, 2)
	st, err := ComputePlacementOnly(g, c, &fakeEst{commPerByte: time.Nanosecond}, Options{})
	if err != nil {
		t.Fatalf("ComputePlacementOnly: %v", err)
	}
	if len(st.Splits) != 0 {
		t.Error("placement-only strategy contains splits")
	}
	if st.Graph != g {
		t.Error("placement-only strategy rewrote the graph")
	}
}

// TestOSDPOSSeedWonAndUnmaterializable pins the two ends of the warm-start
// contract inside the core package: a seed nothing beats comes back as the
// result (SeedWon, its own split list, makespan equal to the seed bound),
// and a seed that no longer materializes on the graph is ignored, so the
// search runs cold.
func TestOSDPOSSeedWonAndUnmaterializable(t *testing.T) {
	g := bottleneckGraph(t, int64(100*time.Microsecond))
	c := clusterN(t, 2)
	est := &fakeEst{commPerByte: time.Nanosecond}
	opts := Options{Workers: 1}
	cold, err := ComputeStrategy(g, c, est, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Artifact.Splits) == 0 {
		t.Fatal("cold search accepted no split; the seed would not bound anything")
	}

	seed := cold.Artifact
	opts.Seed = &seed
	won, err := OSDPOS(g, c, est, opts)
	if err != nil {
		t.Fatalf("seeded OSDPOS: %v", err)
	}
	if !won.Seeded || !won.SeedWon {
		t.Fatalf("Seeded/SeedWon = %v/%v, want true/true", won.Seeded, won.SeedWon)
	}
	if won.Schedule.Makespan != won.SeedBound || won.SeedBound != cold.Predicted {
		t.Errorf("makespan %v, seed bound %v, cold %v: want all equal",
			won.Schedule.Makespan, won.SeedBound, cold.Predicted)
	}
	if len(won.Splits) != len(seed.Splits) || won.Splits[0] != seed.Splits[0] {
		t.Errorf("splits %v, want the seed's %v", won.Splits, seed.Splits)
	}

	stale := cold.Artifact
	stale.Splits = []graph.SplitDecision{{OpName: "no-such-op", Dim: graph.DimBatch, N: 2}}
	opts.Seed = &stale
	got, err := OSDPOS(g, c, est, opts)
	if err != nil {
		t.Fatalf("OSDPOS with an unmaterializable seed: %v", err)
	}
	want, err := OSDPOS(g, c, est, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Seeded || got.SeedWon {
		t.Errorf("unmaterializable seed reported Seeded/SeedWon = %v/%v", got.Seeded, got.SeedWon)
	}
	assertSameStrategy(t, "unmaterializable seed", want, got)
}

// TestOSDPOSZeroIncumbentStops covers the one case a bounded candidate can
// complete without beating the incumbent: a zero makespan, where a zero
// bound does not prune. The walk must stop there like the oracle does, not
// commit a split that improves nothing.
func TestOSDPOSZeroIncumbentStops(t *testing.T) {
	g := bottleneckGraph(t, int64(100*time.Microsecond))
	c := clusterN(t, 2)
	est := &fakeEst{exec: map[string]time.Duration{"in": 0, "big": 0, "out": 0}}
	want, err := osdposOracle(g, c, est, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Schedule.Makespan != 0 || len(want.Splits) != 0 {
		t.Fatalf("oracle: makespan %v, splits %v; want 0 and none", want.Schedule.Makespan, want.Splits)
	}
	for _, w := range []int{1, 2} {
		got, err := OSDPOS(g, c, est, Options{Workers: w})
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		assertSameStrategy(t, fmt.Sprintf("w=%d", w), want, got)
	}
}
