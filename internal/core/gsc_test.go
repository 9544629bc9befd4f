package core

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
)

// syncFixture builds a 2-replica data-parallel graph shaped like the
// VGG-style workloads the colocation pass targets: a heavy convolution
// backbone with negligible weights (worth running in parallel per replica)
// followed by a light dense layer carrying `paramBytes` of weights (whose
// per-iteration fetch and gradient sync dominate when placed remotely).
func syncFixture(t *testing.T, paramBytes int64) *graph.Graph {
	t.Helper()
	m := graph.New()
	in := m.MustAddOp(&graph.Op{Name: "input", Kind: graph.KindInput, OutputBytes: 1 << 10, Batch: 8})
	conv := m.MustAddOp(&graph.Op{
		Name: "conv", Kind: graph.KindConv2D, FLOPs: int64(100 * time.Millisecond),
		ParamBytes: 1 << 10, OutputBytes: 1 << 10, Batch: 8, Channels: 64,
	})
	fc := m.MustAddOp(&graph.Op{
		Name: "fc", Kind: graph.KindMatMul, FLOPs: int64(2 * time.Millisecond),
		ParamBytes: paramBytes, OutputBytes: 1 << 10, Batch: 8, Channels: 64,
	})
	fcBP := m.MustAddOp(&graph.Op{
		Name: "fc_bp", Kind: graph.KindMatMulBackprop, FLOPs: int64(4 * time.Millisecond),
		OutputBytes: 1 << 10, Batch: 8, GradFor: "fc",
	})
	convBP := m.MustAddOp(&graph.Op{
		Name: "conv_bp", Kind: graph.KindConv2DBackprop, FLOPs: int64(200 * time.Millisecond),
		OutputBytes: 1 << 10, Batch: 8, GradFor: "conv",
	})
	m.MustConnect(in, conv, 1<<10)
	m.MustConnect(conv, fc, 1<<10)
	m.MustConnect(fc, fcBP, 1<<10)
	m.MustConnect(fcBP, convBP, 1<<10)
	m.MustConnect(conv, convBP, 1<<10)
	g, err := graph.BuildDataParallel(m, 2)
	if err != nil {
		t.Fatalf("BuildDataParallel: %v", err)
	}
	return g
}

func TestGradientSyncGroupsStructure(t *testing.T) {
	g := syncFixture(t, 1<<20)
	groups := GradientSyncGroups(g)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2 (conv and fc)", len(groups))
	}
	grp := groups[0] // sorted by descending params: fc first
	if g.Op(grp.Variable).Kind != graph.KindVariable {
		t.Error("group anchor is not a variable")
	}
	if len(grp.Grads) != 2 {
		t.Errorf("grads = %d, want 2", len(grp.Grads))
	}
	// Variable feeds forward and backward of both replicas.
	if len(grp.Consumers) != 4 {
		t.Errorf("consumers = %d, want 4", len(grp.Consumers))
	}
	if grp.ParamBytes != 1<<20 {
		t.Errorf("ParamBytes = %d", grp.ParamBytes)
	}
	if g.Op(grp.Apply).Kind != graph.KindApplyGradient {
		t.Error("apply member wrong kind")
	}
}

func TestGradientSyncGroupsHierarchical(t *testing.T) {
	m := graph.New()
	fc := m.MustAddOp(&graph.Op{
		Name: "fc", Kind: graph.KindMatMul, FLOPs: 1e6,
		ParamBytes: 1 << 20, OutputBytes: 1 << 10, Batch: 8, Channels: 64,
	})
	bp := m.MustAddOp(&graph.Op{
		Name: "fc_bp", Kind: graph.KindMatMulBackprop, FLOPs: 2e6,
		OutputBytes: 1 << 10, Batch: 8, GradFor: "fc",
	})
	m.MustConnect(fc, bp, 1<<10)
	// 8 replicas exceed the flat-aggregation fanout: a two-level tree.
	g, err := graph.BuildDataParallel(m, 8)
	if err != nil {
		t.Fatalf("BuildDataParallel: %v", err)
	}
	groups := GradientSyncGroups(g)
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
	grp := groups[0]
	if len(grp.Grads) != 8 {
		t.Errorf("leaf gradients = %d, want 8", len(grp.Grads))
	}
	if len(grp.SubAggs) != 2 {
		t.Errorf("intermediate AddNs = %d, want 2", len(grp.SubAggs))
	}
	for _, id := range grp.Grads {
		if g.Op(id).Kind == graph.KindAddN {
			t.Error("intermediate AddN leaked into leaf gradients")
		}
	}
}

func TestGradientSyncGroupsSortedByParamSize(t *testing.T) {
	m := graph.New()
	prev := -1
	sizes := []int64{1 << 10, 1 << 24, 1 << 16}
	for i, sz := range sizes {
		name := "fc" + string(rune('a'+i))
		id := m.MustAddOp(&graph.Op{
			Name: name, Kind: graph.KindMatMul, FLOPs: 1e6,
			ParamBytes: sz, OutputBytes: 1 << 10, Batch: 8, Channels: 64,
		})
		bp := m.MustAddOp(&graph.Op{
			Name: name + "_bp", Kind: graph.KindMatMulBackprop, FLOPs: 2e6,
			OutputBytes: 1 << 10, Batch: 8, GradFor: name,
		})
		m.MustConnect(id, bp, 1<<10)
		if prev >= 0 {
			m.MustConnect(prev, id, 1<<10)
		}
		prev = id
	}
	g, err := graph.BuildDataParallel(m, 2)
	if err != nil {
		t.Fatalf("BuildDataParallel: %v", err)
	}
	groups := GradientSyncGroups(g)
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	for i := 1; i < len(groups); i++ {
		if groups[i].ParamBytes > groups[i-1].ParamBytes {
			t.Error("groups not sorted by descending parameter size")
		}
	}
}

func TestColocateSyncHeavyGroupEndsColocated(t *testing.T) {
	// The paper's signature behaviour (Sec. 6.5): all replicas of a
	// large-parameter operation end up on one GPU, avoiding the weight
	// fetch and gradient aggregation traffic. With the channel-aware
	// schedule estimate DPOS often discovers this on its own (the sync
	// chain dominates the ranks); the colocation pass is the safety net.
	// Either way, the resulting schedule must have the heavy group on a
	// single device, and it must beat a deliberately spread placement.
	g := syncFixture(t, 256<<20) // 256 MiB of weights
	c := clusterN(t, 2)
	est := &fakeEst{commPerByte: time.Nanosecond}
	_, sched, err := ColocateSync(g, c, est, Options{})
	if err != nil {
		t.Fatalf("ColocateSync: %v", err)
	}
	groups := GradientSyncGroups(g)
	grp := groups[0] // fc group, largest parameters
	if !alreadyColocated(grp, sched.Placement) {
		t.Fatal("heavy sync group not colocated in the final schedule")
	}

	// A forced spread of the fc replicas must estimate worse.
	spreadPins := map[string]int{
		"var/fc": 0, "rep0/fc": 0, "rep0/fc_bp": 0,
		"rep1/fc": 1, "rep1/fc_bp": 1,
	}
	spread, err := DPOS(g, c, est, Options{Pinned: spreadPins})
	if err != nil {
		t.Fatalf("spread DPOS: %v", err)
	}
	if sched.Makespan >= spread.Makespan {
		t.Errorf("colocated makespan %v not better than spread %v",
			sched.Makespan, spread.Makespan)
	}
}

func TestColocateSyncPinsFireWhenGreedySpreads(t *testing.T) {
	// Force the base schedule to spread the fc group by pinning the
	// replicas apart is not possible (pins persist); instead make the
	// greedy prefer spreading: cheap comm makes the fc chain off the
	// critical path, then raise the observable benefit by checking that
	// ColocateSync never leaves the group split across devices while
	// claiming an improvement.
	g := syncFixture(t, 32<<20)
	c := clusterN(t, 2)
	est := &fakeEst{commPerByte: time.Nanosecond}
	pins, sched, err := ColocateSync(g, c, est, Options{})
	if err != nil {
		t.Fatalf("ColocateSync: %v", err)
	}
	grp := GradientSyncGroups(g)[0]
	if len(pins) > 0 && !alreadyColocated(grp, sched.Placement) {
		t.Error("pins accepted but group still spread")
	}
}

func TestColocateSyncNoGroupsSingleDevice(t *testing.T) {
	g := syncFixture(t, 1<<20)
	c := clusterN(t, 1)
	pins, sched, err := ColocateSync(g, c, &fakeEst{}, Options{})
	if err != nil {
		t.Fatalf("ColocateSync: %v", err)
	}
	if len(pins) != 0 {
		t.Errorf("pins on a single device: %v", pins)
	}
	if sched == nil {
		t.Fatal("no schedule returned")
	}
}

func TestColocateSyncCheapTrafficDeclined(t *testing.T) {
	// Tiny parameters: colocating saves nothing, so the pass should accept
	// no pins (the first trial fails to improve and the loop breaks).
	g := syncFixture(t, 64)
	c := clusterN(t, 2)
	est := &fakeEst{commPerByte: time.Nanosecond}
	pins, _, err := ColocateSync(g, c, est, Options{})
	if err != nil {
		t.Fatalf("ColocateSync: %v", err)
	}
	if len(pins) != 0 {
		t.Errorf("pins accepted for negligible traffic: %v", pins)
	}
}

func TestDPOSHonorsPins(t *testing.T) {
	g := syncFixture(t, 1<<20)
	c := clusterN(t, 2)
	fc, ok := g.OpByName("rep0/fc")
	if !ok {
		t.Fatal("rep0/fc missing")
	}
	sched, err := DPOS(g, c, &fakeEst{}, Options{Pinned: map[string]int{"rep0/fc": 1}})
	if err != nil {
		t.Fatalf("DPOS: %v", err)
	}
	if sched.Placement[fc.ID] != 1 {
		t.Errorf("pinned op on device %d, want 1", sched.Placement[fc.ID])
	}
}

func TestDPOSPinFallsBackWhenMemoryFull(t *testing.T) {
	g := graph.New()
	g.MustAddOp(&graph.Op{Name: "big", Kind: graph.KindMatMul, FLOPs: 1e6, ParamBytes: 3 * device.GiB})
	g.MustAddOp(&graph.Op{Name: "big2", Kind: graph.KindMatMul, FLOPs: 1e6, ParamBytes: 3 * device.GiB})
	c := clusterMem(t, 2, 13*device.GiB)
	// Both pinned to device 0: only one fits (3 GiB x4 optimizer state).
	sched, err := DPOS(g, c, &fakeEst{}, Options{Pinned: map[string]int{"big": 0, "big2": 0}})
	if err != nil {
		t.Fatalf("DPOS: %v", err)
	}
	if sched.Placement[0] == 0 && sched.Placement[1] == 0 {
		t.Error("soft pin overcommitted device memory")
	}
}

// TestColocateSyncMatchesOracle pins pruning exactness of the colocation
// pass: across the catalog on 2, 4 and 8 GPUs, ColocateSync at Workers
// {1, 2, 4} must return the pins, makespan and placement of
// colocateSyncOracle, whose probes all run unbounded to completion. Probes
// replay the incumbent's decisions up to the group's first op in the rank
// queue; Bert-large@2 probes a group holding the queue's first op, so it
// replays nothing.
func TestColocateSyncMatchesOracle(t *testing.T) {
	catalog := models.Catalog()
	if testing.Short() {
		catalog = catalog[:3]
	}
	headProbed := 0
	for _, spec := range catalog {
		t.Run(spec.Name, func(t *testing.T) {
			for _, gpus := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("gpus=%d", gpus), func(t *testing.T) {
					cluster, err := device.SingleServer(gpus)
					if err != nil {
						t.Fatal(err)
					}
					est := kernels.NewDefaultOracle(cluster)
					m, err := spec.Build(4)
					if err != nil {
						t.Fatal(err)
					}
					g, err := graph.BuildDataParallel(m, gpus)
					if err != nil {
						t.Fatal(err)
					}
					base := Options{MaxSyncGroups: 8}
					wantPins, want, err := colocateSyncOracle(g, cluster, est, base)
					if err != nil {
						t.Fatalf("oracle: %v", err)
					}
					if firstProbedHoldsQueueHead(t, g, cluster, est) {
						headProbed++
					}
					for _, w := range []int{1, 2, 4} {
						opts := base
						opts.Workers = w
						pins, got, err := ColocateSync(g, cluster, est, opts)
						if err != nil {
							t.Fatalf("w=%d: %v", w, err)
						}
						if !maps.Equal(pins, wantPins) {
							t.Errorf("w=%d: pins %v, oracle %v", w, pins, wantPins)
						}
						if got.Makespan != want.Makespan {
							t.Errorf("w=%d: makespan %v, oracle %v", w, got.Makespan, want.Makespan)
						}
						if !equalInts(got.Placement, want.Placement) {
							t.Errorf("w=%d: placements differ from the oracle", w)
						}
					}
				})
			}
		})
	}
	if !testing.Short() && headProbed == 0 {
		t.Error("no cell probes a group holding the rank queue's first op")
	}
}

// firstProbedHoldsQueueHead reports whether the first sync group
// ColocateSync probes on g holds the op DPOS queues first: the highest
// upward rank, the lowest ID among ties.
func firstProbedHoldsQueueHead(t *testing.T, g *graph.Graph, cluster *device.Cluster, est cost.Estimator) bool {
	t.Helper()
	ranks, err := ComputeRanks(g, cluster, est)
	if err != nil {
		t.Fatal(err)
	}
	head := 0
	for id, r := range ranks.Rank {
		if r > ranks.Rank[head] {
			head = id
		}
	}
	s, err := DPOS(g, cluster, est, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, grp := range GradientSyncGroups(g) {
		if len(grp.Grads) >= 2 && !alreadyColocated(grp, s.Placement) {
			return slices.Contains(grp.ops(), head)
		}
	}
	return false
}

// TestColocateSyncPrunedProbeInfeasible is the corner where every probe of
// a group is pruned on two devices whose memory barely holds a 2-replica
// graph, and each pruned probe runs out of memory when finished: the
// unbounded pass skips that group and accepts a later one, so the
// colocation pass must finish the unproven probes rather than stop. It
// must match colocateSyncOracle at every worker count.
func TestColocateSyncPrunedProbeInfeasible(t *testing.T) {
	m := graph.New()
	prev := m.MustAddOp(&graph.Op{Name: "input", Kind: graph.KindInput, OutputBytes: 1 << 10, Batch: 8})
	connect := func(op *graph.Op) {
		id := m.MustAddOp(op)
		m.MustConnect(prev, id, m.Op(prev).OutputBytes)
		prev = id
	}
	for _, l := range []struct {
		flops            time.Duration
		paramKiB, outKiB int64
	}{{19 * time.Microsecond, 1536, 256}, {107 * time.Microsecond, 512, 1024},
		{184 * time.Microsecond, 2048, 256}, {116 * time.Microsecond, 1536, 1024}} {
		connect(&graph.Op{
			Name: fmt.Sprintf("l%d", m.NumOps()-1), Kind: graph.KindMatMul, FLOPs: int64(l.flops),
			ParamBytes: l.paramKiB << 10, OutputBytes: l.outKiB << 10, Batch: 8, Channels: 64,
		})
	}
	for i, l := range []struct {
		flops  time.Duration
		outKiB int64
	}{{45 * time.Microsecond, 512}, {185 * time.Microsecond, 256},
		{249 * time.Microsecond, 512}, {263 * time.Microsecond, 512}} {
		layer := fmt.Sprintf("l%d", 3-i)
		connect(&graph.Op{
			Name: layer + "_bp", Kind: graph.KindMatMulBackprop, FLOPs: int64(l.flops),
			OutputBytes: l.outKiB << 10, Batch: 8, GradFor: layer,
		})
	}
	g, err := graph.BuildDataParallel(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	cluster := clusterMem(t, 2, 14156800)
	est := &fakeEst{commLatency: 11 * time.Microsecond}
	wantPins, want, err := colocateSyncOracle(g, cluster, est, Options{})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if len(wantPins) == 0 {
		t.Fatal("the oracle accepts no group; the fixture no longer reaches the corner")
	}
	for _, w := range []int{1, 2, 4} {
		pins, got, err := ColocateSync(g, cluster, est, Options{Workers: w})
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if !maps.Equal(pins, wantPins) || got.Makespan != want.Makespan || !equalInts(got.Placement, want.Placement) {
			t.Errorf("w=%d: pins %v makespan %v, oracle %v makespan %v", w, pins, got.Makespan, wantPins, want.Makespan)
		}
	}
}
