package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fastt/internal/cost"
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

// searchingGoroutines returns the stack of every goroutine other than the
// caller that is still running search code: a frame in this package above
// its entry function, and not inside a sync.WaitGroup call. A fanOut worker
// leaves drain — and with it every candidate evaluation — before its
// deferred wg.Done, so a joined worker shows at most its entry frame and
// the Done call; a worker that outlived its fan-out is still inside drain.
// The check reads one stack snapshot and never waits.
func searchingGoroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	goroutines := strings.Split(string(buf), "\n\n")
	var out []string
	for _, stack := range goroutines[1:] { // [0] is the caller
		var funcs []string
		for _, line := range strings.Split(stack, "\n")[1:] {
			if line == "" || strings.HasPrefix(line, "\t") ||
				strings.HasPrefix(line, "created by ") || strings.HasPrefix(line, "...") {
				continue
			}
			funcs = append(funcs, line)
		}
		if len(funcs) == 0 {
			continue
		}
		inSearch, inWaitGroup := false, false
		for _, f := range funcs[:len(funcs)-1] { // the last frame is the entry
			inSearch = inSearch || strings.HasPrefix(f, "fastt/internal/core.")
			inWaitGroup = inWaitGroup || strings.HasPrefix(f, "sync.(*WaitGroup).")
		}
		if inSearch && !inWaitGroup {
			out = append(out, stack)
		}
	}
	return out
}

// stallingEst wraps an estimator so that a fanOut worker is still
// evaluating a candidate long after the search's own goroutine (the one
// that built the estimator) has run out of indices: a fan-out that did not
// join would let the search return with that worker inside drain. The
// first Exec call made off the search's goroutine calls onStall and then
// sleeps for stall. The search's goroutine, at its first Exec call inside a
// fan-out, waits until a worker has stalled, so that one is sure to; if
// none has within stall, it calls onStall itself.
type stallingEst struct {
	cost.Estimator
	caller  string
	stall   time.Duration
	onStall func()
	done    atomic.Bool
	stalled chan struct{}
}

func newStallingEst(inner cost.Estimator, stall time.Duration, onStall func()) *stallingEst {
	return &stallingEst{Estimator: inner, caller: goroutineID(ownStack()), stall: stall,
		onStall: onStall, stalled: make(chan struct{})}
}

func (s *stallingEst) Exec(op *graph.Op, d *device.Device) time.Duration {
	if !s.done.Load() {
		stack := ownStack()
		switch {
		case goroutineID(stack) != s.caller:
			if s.done.CompareAndSwap(false, true) {
				s.onStall()
				close(s.stalled)
				time.Sleep(s.stall)
			}
		case strings.Contains(stack, "fastt/internal/core.fanOut("):
			select {
			case <-s.stalled:
			case <-time.After(s.stall):
				if s.done.CompareAndSwap(false, true) {
					s.onStall()
				}
			}
		}
	}
	return s.Estimator.Exec(op, d)
}

// ownStack returns the calling goroutine's stack trace.
func ownStack() string {
	buf := make([]byte, 1<<14)
	return string(buf[:runtime.Stack(buf, false)])
}

// goroutineID returns the goroutine number from a stack trace's header.
func goroutineID(stack string) string { return strings.Fields(stack)[1] }

// settledGoroutines returns runtime.NumGoroutine() once it is at most want,
// or after a second. A joined fanOut worker may still be returning from
// wg.Done when the search returns; a leaked one never exits.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSearchJoinsGoroutines pins down that the candidate fan-out joins
// before a search returns, after a successful search and after a
// mid-search cancel at Workers=4: the moment the search returns, no other
// goroutine is running search code (searchingGoroutines), and no goroutine
// leaks — runtime.NumGoroutine() settles back to at most its pre-call
// value (a goroutine of an earlier test may exit meanwhile). One
// worker stalls in its first estimator call (stallingEst) for longer than
// the rest of the search takes — in the cancelled search, it is the one
// that cancels — so without the join it would still be inside drain when
// the search returns.
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
	if s := searchingGoroutines(); len(s) > 0 {
		t.Fatalf("search code running before the test:\n%s", strings.Join(s, "\n\n"))
	}

	const stall = 200 * time.Millisecond
	before := runtime.NumGoroutine()
	_, err = ComputeStrategy(g, cluster, newStallingEst(oracle, stall, func() {}), opts)
	running := searchingGoroutines()
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if len(running) > 0 {
		t.Errorf("after a search, %d goroutines still run search code:\n%s",
			len(running), strings.Join(running, "\n\n"))
	}
	if got := settledGoroutines(before); got > before {
		t.Errorf("after a search: %d goroutines, want at most %d", got, before)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = ComputeStrategyCtx(ctx, g, cluster, newStallingEst(oracle, stall, cancel), opts)
	running = searchingGoroutines()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search: err = %v, want context.Canceled", err)
	}
	if len(running) > 0 {
		t.Errorf("after a cancelled search, %d goroutines still run search code:\n%s",
			len(running), strings.Join(running, "\n\n"))
	}
	if got := settledGoroutines(before); got > before {
		t.Errorf("after a cancelled search: %d goroutines, want at most %d", got, before)
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

// TestDPOSRepeatedCallsStable guards the scratch recycling: repeated DPOS
// calls over one unchanged graph must keep returning the same schedule.
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
