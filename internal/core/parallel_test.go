package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
)

func TestFanOutCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		hits := make([]int32, 100)
		fanOut(workers, len(hits), func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
		fanOut(workers, 0, func(int) { t.Error("fn called for n=0") })
	}
}

// TestFanOutSequentialReference pins down that Workers <= 1 runs every
// call on the caller, in index order — the sequential reference semantics
// every concurrent mode is measured against.
func TestFanOutSequentialReference(t *testing.T) {
	for _, workers := range []int{0, 1} {
		var order []int
		fanOut(workers, 5, func(i int) { order = append(order, i) })
		for i, v := range order {
			if v != i {
				t.Fatalf("workers=%d ran out of order: %v", workers, order)
			}
		}
	}
}

// TestSearchJoinsGoroutines pins down that the candidate fan-out joins
// before a search returns: after a successful search and after a
// mid-search cancel at Workers=4, runtime.NumGoroutine() is back to its
// pre-call value.
func TestSearchJoinsGoroutines(t *testing.T) {
	const gpus = 4
	cluster, err := device.SingleServer(gpus)
	if err != nil {
		t.Fatal(err)
	}
	oracle := kernels.NewDefaultOracle(cluster)
	m, err := models.AlexNet(4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildDataParallel(m, gpus)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxSplitOps: 2, MaxSyncGroups: 2, Workers: 4}

	probe := &cancellingEst{inner: oracle, after: -1, cancel: func() {}}
	before := runtime.NumGoroutine()
	if _, err := ComputeStrategy(g, cluster, probe, opts); err != nil {
		t.Fatalf("search: %v", err)
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Errorf("after a search: %d goroutines, want %d", got, before)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	est := &cancellingEst{inner: oracle, after: probe.calls.Load() / 2, cancel: cancel}
	before = runtime.NumGoroutine()
	if _, err := ComputeStrategyCtx(ctx, g, cluster, est, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search: err = %v, want context.Canceled", err)
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Errorf("after a cancelled search: %d goroutines, want %d", got, before)
	}
}

// TestOSDPOSWorkerDeterminism is the determinism property of the parallel
// candidate search: any worker count must return the identical strategy —
// same split list, placement, order, and makespan — as the sequential
// calculator, across the whole model catalog.
func TestOSDPOSWorkerDeterminism(t *testing.T) {
	const gpus = 4
	cluster, err := device.SingleServer(gpus)
	if err != nil {
		t.Fatal(err)
	}
	oracle := kernels.NewDefaultOracle(cluster)
	for _, spec := range models.Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m, err := spec.Build(4)
			if err != nil {
				t.Fatal(err)
			}
			g, err := graph.BuildDataParallel(m, gpus)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{MaxSplitOps: 2, MaxSyncGroups: 2}

			opts.Workers = 1
			seq, err := OSDPOS(g, cluster, oracle, opts)
			if err != nil {
				t.Fatalf("sequential OSDPOS: %v", err)
			}
			opts.Workers = 8
			par, err := OSDPOS(g, cluster, oracle, opts)
			if err != nil {
				t.Fatalf("parallel OSDPOS: %v", err)
			}

			// The live shared bound lets the concurrent pass abort
			// candidates the sequential pass finishes, so only an upper
			// bound on Evaluated is deterministic (a candidate completing
			// under the tighter live bound completes under the static one
			// too). The strategy equality below stays exact.
			if par.Evaluated > seq.Evaluated {
				t.Errorf("Evaluated: parallel %d exceeds sequential %d", par.Evaluated, seq.Evaluated)
			}
			if len(seq.Splits) != len(par.Splits) {
				t.Fatalf("split lists differ: %v vs %v", seq.Splits, par.Splits)
			}
			for i := range seq.Splits {
				if seq.Splits[i] != par.Splits[i] {
					t.Fatalf("split %d differs: %v vs %v", i, seq.Splits[i], par.Splits[i])
				}
			}
			if seq.Schedule.Makespan != par.Schedule.Makespan {
				t.Errorf("makespan: sequential %v, parallel %v",
					seq.Schedule.Makespan, par.Schedule.Makespan)
			}
			if !equalInts(seq.Schedule.Placement, par.Schedule.Placement) {
				t.Error("placements differ")
			}
			if !equalInts(seq.Schedule.Order, par.Schedule.Order) {
				t.Error("orders differ")
			}
		})
	}
}

// TestColocateSyncWorkerIndependence pins down that the colocation pass
// returns identical pins and schedule at any worker setting, now that the
// per-group device probes fan out concurrently under the live bound.
func TestColocateSyncWorkerIndependence(t *testing.T) {
	cluster, err := device.SingleServer(4)
	if err != nil {
		t.Fatal(err)
	}
	oracle := kernels.NewDefaultOracle(cluster)
	m, err := models.AlexNet(4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildDataParallel(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	pins1, s1, err := ColocateSync(g, cluster, oracle, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pins8, s8, err := ColocateSync(g, cluster, oracle, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Makespan != s8.Makespan {
		t.Errorf("makespan differs: %v vs %v", s1.Makespan, s8.Makespan)
	}
	if len(pins1) != len(pins8) {
		t.Fatalf("pin sets differ: %v vs %v", pins1, pins8)
	}
	for k, v := range pins1 {
		if pins8[k] != v {
			t.Errorf("pin %q differs: %d vs %d", k, v, pins8[k])
		}
	}
}

func TestScheduleContextStaleness(t *testing.T) {
	g, est := diamond(t)
	c := clusterN(t, 2)

	ctx, err := contextFor(g)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.stale() {
		t.Fatal("fresh context reports stale")
	}
	if cached, err := contextFor(g); err != nil || cached != ctx {
		t.Fatalf("unmutated graph must hit the cache (err=%v, same=%v)", err, cached == ctx)
	}

	// Structural rewrite after the context was cached.
	id := g.MustAddOp(&graph.Op{Name: "late", FLOPs: 1, Batch: 1})
	g.MustConnect(0, id, 64)
	if !ctx.stale() {
		t.Fatal("context not stale after AddOp+Connect")
	}
	fresh, err := contextFor(g)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == ctx {
		t.Fatal("stale context returned from cache")
	}
	if len(fresh.topo) != g.NumOps() {
		t.Fatalf("rebuilt topo has %d ops, graph has %d", len(fresh.topo), g.NumOps())
	}

	// The calculator must see the mutated graph, not the cached shape.
	sched, err := DPOS(g, c, est, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Placement) != g.NumOps() {
		t.Fatalf("schedule covers %d ops, graph has %d", len(sched.Placement), g.NumOps())
	}
	if sched.Placement[id] < 0 {
		t.Fatal("late op left unplaced")
	}
}

// TestDPOSRepeatedCallsStable guards the context cache + scratch recycling:
// repeated DPOS calls over one unchanged graph must keep returning the same
// schedule (the seed behaviour before caching existed).
func TestDPOSRepeatedCallsStable(t *testing.T) {
	g, est := diamond(t)
	c := clusterN(t, 2)
	first, err := DPOS(g, c, est, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want time.Duration = first.Makespan
	placement := append([]int(nil), first.Placement...)
	for i := 0; i < 5; i++ {
		s, err := DPOS(g, c, est, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Makespan != want {
			t.Fatalf("call %d: makespan %v, want %v", i, s.Makespan, want)
		}
		if !equalInts(s.Placement, placement) {
			t.Fatalf("call %d: placement drifted", i)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
