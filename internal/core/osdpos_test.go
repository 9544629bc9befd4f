package core

import (
	"fmt"
	"testing"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
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

// tightConv is one convolution of a tight-memory fixture, fed by the input
// or by an earlier convolution.
type tightConv struct {
	name     string
	flops    time.Duration
	outMiB   int64
	paramKiB int64
	from     string
}

// tightGraph builds an input op with inMiB of output followed by convs, each
// splittable by batch and channel, every edge carrying its producer's
// whole output.
func tightGraph(t *testing.T, inMiB int64, convs []tightConv) *graph.Graph {
	t.Helper()
	g := graph.New()
	g.MustAddOp(&graph.Op{Name: "in", Kind: graph.KindInput, OutputBytes: inMiB << 20, Batch: 16})
	for _, c := range convs {
		id := g.MustAddOp(&graph.Op{
			Name: c.name, Kind: graph.KindConv2D, FLOPs: int64(c.flops),
			OutputBytes: c.outMiB << 20, ParamBytes: c.paramKiB << 10, Batch: 16, Channels: 16,
		})
		from, ok := g.OpByName(c.from)
		if !ok {
			t.Fatalf("%s: no producer %q", c.name, c.from)
		}
		g.MustConnect(from.ID, id, from.OutputBytes)
	}
	return g
}

// TestOSDPOSAllPrunedRounds covers the round in which every candidate is
// pruned on two devices whose memory barely holds the graph. Whether the
// walk stops or moves on depends on whether a pruned candidate would
// complete, settled three ways: a candidate carries the completion proof
// (no rerun); the proof fails and the unbounded rerun completes; the
// reruns all run out of memory, so the walk moves to the next op, whose
// round ends with a proof. Each must return the oracle's strategy, count
// Evaluated/Pruned as the search did before the proof existed (the
// figures below), and run the pinned number of DPOS passes: the initial
// pass, two candidates per round, and the reruns.
func TestOSDPOSAllPrunedRounds(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		inMiB                     int64
		convs                     []tightConv
		memory                    int64
		latency                   time.Duration
		evaluated, pruned, passes int
	}{
		{
			name: "proof holds", inMiB: 4, memory: 16043212, latency: 13 * time.Microsecond,
			convs: []tightConv{
				{"c0", 68 * time.Microsecond, 3, 512, "in"},
				{"c1", 193 * time.Microsecond, 4, 0, "in"},
				{"c2", 182 * time.Microsecond, 2, 512, "in"},
			},
			evaluated: 1, pruned: 1, passes: 3,
		},
		{
			name: "proof fails, rerun completes", inMiB: 1, memory: 11010048, latency: 8 * time.Microsecond,
			convs: []tightConv{
				{"c0", 39 * time.Microsecond, 2, 256, "in"},
				{"c1", 160 * time.Microsecond, 1, 256, "c0"},
				{"c2", 150 * time.Microsecond, 4, 256, "in"},
				{"c3", 60 * time.Microsecond, 2, 512, "c1"},
			},
			evaluated: 1, pruned: 1, passes: 4,
		},
		{
			name: "reruns infeasible, walk moves on", inMiB: 2, memory: 16882073, latency: 15 * time.Microsecond,
			convs: []tightConv{
				{"c0", 162 * time.Microsecond, 4, 512, "in"},
				{"c1", 144 * time.Microsecond, 1, 512, "c0"},
				{"c2", 67 * time.Microsecond, 3, 512, "c0"},
				{"c3", 57 * time.Microsecond, 4, 0, "in"},
				{"c4", 109 * time.Microsecond, 3, 0, "c3"},
			},
			evaluated: 1, pruned: 1, passes: 7,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tightGraph(t, tc.inMiB, tc.convs)
			c, err := device.SingleServer(2, device.WithMemory(tc.memory))
			if err != nil {
				t.Fatal(err)
			}
			est := &fakeEst{commLatency: tc.latency}
			want, err := osdposOracle(g, c, est, Options{})
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			for _, w := range []int{1, 2} {
				got, err := OSDPOS(g, c, est, Options{Workers: w})
				if err != nil {
					t.Fatalf("w=%d: %v", w, err)
				}
				assertSameStrategy(t, fmt.Sprintf("w=%d", w), want, got)
				if w > 1 {
					continue // the live bound makes the counts a race outcome
				}
				if got.Evaluated != tc.evaluated || got.Pruned != tc.pruned || got.Passes != tc.passes {
					t.Errorf("Evaluated/Pruned/Passes = %d/%d/%d, want %d/%d/%d",
						got.Evaluated, got.Pruned, got.Passes, tc.evaluated, tc.pruned, tc.passes)
				}
			}
		})
	}
}

// TestComputeStrategyPasses pins the DPOS passes one search runs on three
// small catalog cells (MaxSplitOps = MaxSyncGroups = 8, one worker), so a
// pass that comes back fails here instead of hiding in benchmark noise.
// Each count is two below a search that reschedules ColocateSync's result
// as OS-DPOS's first pass and reruns a pruned candidate to learn that it
// would complete.
func TestComputeStrategyPasses(t *testing.T) {
	for _, tc := range []struct {
		model        string
		gpus, passes int
	}{
		{"LeNet", 2, 5},
		{"VGG-19", 2, 9},
		{"AlexNet", 4, 19},
	} {
		t.Run(fmt.Sprintf("%s@%d", tc.model, tc.gpus), func(t *testing.T) {
			spec, err := models.ByName(tc.model)
			if err != nil {
				t.Fatal(err)
			}
			m, err := spec.Build(4)
			if err != nil {
				t.Fatal(err)
			}
			g, err := graph.BuildDataParallel(m, tc.gpus)
			if err != nil {
				t.Fatal(err)
			}
			cluster := clusterN(t, tc.gpus)
			st, err := ComputeStrategy(g, cluster, kernels.NewDefaultOracle(cluster),
				Options{MaxSplitOps: 8, MaxSyncGroups: 8, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if st.Passes != tc.passes {
				t.Errorf("Passes = %d, want %d", st.Passes, tc.passes)
			}
		})
	}
}

// TestOSDPOSZeroCostTies covers graphs whose split and concat nodes cost
// nothing to run or to feed (zero-cost transfers): each such node would
// tie its consumer's rank, and a queue ordered by ID on ties could then
// schedule the consumer before its producer, with a makespan shorter than
// the true one. The oracle, which schedules committed clones, and OSDPOS,
// which schedules overlays, then disagreed on these fixtures. Each must
// now give the oracle's strategy, and every schedule must start each op
// after its inputs finish.
func TestOSDPOSZeroCostTies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inMiB  int64
		memory int64
		convs  []tightConv
	}{
		{
			name: "split choice", inMiB: 4, memory: 13901379,
			convs: []tightConv{
				{"c0", 183 * time.Microsecond, 1, 256, "in"},
				{"c1", 158 * time.Microsecond, 3, 0, "c0"},
				{"c2", 185 * time.Microsecond, 4, 512, "in"},
			},
		},
		{
			name: "chain", inMiB: 3, memory: 15567253,
			convs: []tightConv{
				{"c0", 61 * time.Microsecond, 2, 256, "in"},
				{"c1", 199 * time.Microsecond, 4, 256, "c0"},
				{"c2", 199 * time.Microsecond, 4, 256, "c1"},
			},
		},
		{
			name: "fork", inMiB: 1, memory: 16810473,
			convs: []tightConv{
				{"c0", 151 * time.Microsecond, 4, 0, "in"},
				{"c1", 93 * time.Microsecond, 4, 256, "c0"},
				{"c2", 139 * time.Microsecond, 3, 0, "c0"},
				{"c3", 128 * time.Microsecond, 4, 512, "c1"},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tightGraph(t, tc.inMiB, tc.convs)
			c, err := device.SingleServer(2, device.WithMemory(tc.memory))
			if err != nil {
				t.Fatal(err)
			}
			est := &fakeEst{}
			want, err := osdposOracle(g, c, est, Options{})
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			assertPrecedence(t, "oracle", want)
			for _, w := range []int{1, 2} {
				got, err := OSDPOS(g, c, est, Options{Workers: w})
				if err != nil {
					t.Fatalf("w=%d: %v", w, err)
				}
				assertSameStrategy(t, fmt.Sprintf("w=%d", w), want, got)
				assertPrecedence(t, fmt.Sprintf("w=%d", w), got)
			}
		})
	}
}

// assertPrecedence fails the test when a schedule of res starts an op
// before one of its inputs finishes on the producer.
func assertPrecedence(t *testing.T, label string, res *SplitResult) {
	t.Helper()
	s := res.Schedule
	for _, e := range res.Graph.Edges() {
		if s.Start[e.To] < s.Finish[e.From] {
			t.Errorf("%s: %s starts at %v, before its input %s finishes at %v", label,
				res.Graph.Op(e.To).Name, s.Start[e.To], res.Graph.Op(e.From).Name, s.Finish[e.From])
		}
	}
}
