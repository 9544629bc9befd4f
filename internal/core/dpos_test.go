package core

import (
	"errors"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
)

// checkScheduleValid asserts structural invariants of any DPOS output:
// complete placement, topologically consistent start times including
// communication delays, no device executing two ops at once.
func checkScheduleValid(t *testing.T, g *graph.Graph, c *device.Cluster, est *fakeEst, s *Schedule) {
	t.Helper()
	if len(s.Placement) != g.NumOps() {
		t.Fatalf("placement has %d entries for %d ops", len(s.Placement), g.NumOps())
	}
	for id, d := range s.Placement {
		if d < 0 || d >= c.NumDevices() {
			t.Errorf("op %d on invalid device %d", id, d)
		}
	}
	for _, e := range g.Edges() {
		arrive := s.Finish[e.From]
		if s.Placement[e.From] != s.Placement[e.To] {
			arrive += est.Comm(e.Bytes, c.Device(s.Placement[e.From]), c.Device(s.Placement[e.To]))
		}
		if s.Start[e.To] < arrive {
			t.Errorf("op %d starts at %v before input from %d arrives at %v",
				e.To, s.Start[e.To], e.From, arrive)
		}
	}
	// Per-device non-overlap.
	byDev := make(map[int][]int)
	for id := range s.Placement {
		byDev[s.Placement[id]] = append(byDev[s.Placement[id]], id)
	}
	for dev, ids := range byDev {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				a, b := ids[i], ids[j]
				if s.Start[a] < s.Finish[b] && s.Start[b] < s.Finish[a] &&
					s.Finish[a] != s.Start[a] && s.Finish[b] != s.Start[b] {
					t.Errorf("ops %d and %d overlap on device %d", a, b, dev)
				}
			}
		}
	}
	// Order is a permutation sorted by start time.
	seen := make([]bool, g.NumOps())
	for i, id := range s.Order {
		if seen[id] {
			t.Errorf("op %d appears twice in order", id)
		}
		seen[id] = true
		if i > 0 && s.Start[s.Order[i-1]] > s.Start[id] {
			t.Error("order not sorted by start time")
		}
		if s.Priorities[id] != i {
			t.Errorf("priority of op %d = %d, want %d", id, s.Priorities[id], i)
		}
	}
}

func TestDPOSDiamondUsesBothDevices(t *testing.T) {
	g, est := diamond(t)
	c := clusterN(t, 2)
	s, err := DPOS(g, c, est, Options{})
	if err != nil {
		t.Fatalf("DPOS: %v", err)
	}
	checkScheduleValid(t, g, c, est, s)
	// b and c are independent; with cheap comm (1us) relative to c's 3us
	// exec, running them on different devices shortens the makespan below
	// the serial 11us.
	serial := 11 * time.Microsecond
	if s.Makespan >= serial {
		t.Errorf("Makespan = %v, want < serial %v", s.Makespan, serial)
	}
	if s.Placement[1] == s.Placement[2] {
		t.Error("independent ops b and c placed on the same device")
	}
}

func TestDPOSSingleDeviceSerializes(t *testing.T) {
	g, est := diamond(t)
	c := clusterN(t, 1)
	s, err := DPOS(g, c, est, Options{})
	if err != nil {
		t.Fatalf("DPOS: %v", err)
	}
	checkScheduleValid(t, g, c, est, s)
	if s.Makespan != 11*time.Microsecond {
		t.Errorf("single-device Makespan = %v, want 11us", s.Makespan)
	}
}

func TestDPOSExpensiveCommKeepsColocated(t *testing.T) {
	g, est := diamond(t)
	est.commPerByte = 10 * time.Microsecond // 10B tensor -> 100us
	c := clusterN(t, 2)
	s, err := DPOS(g, c, est, Options{})
	if err != nil {
		t.Fatalf("DPOS: %v", err)
	}
	checkScheduleValid(t, g, c, est, s)
	// With comm far exceeding compute, everything should land on one
	// device and match the serial makespan.
	if s.DevicesUsedCount() != 1 {
		t.Errorf("used %d devices, want 1 under expensive comm", s.DevicesUsedCount())
	}
	if s.Makespan != 11*time.Microsecond {
		t.Errorf("Makespan = %v, want serial 11us", s.Makespan)
	}
}

func TestDPOSMemoryForcesSpread(t *testing.T) {
	// Two independent 3 GiB ops cannot share a 4 GiB device.
	g := graph.New()
	g.MustAddOp(&graph.Op{Name: "m1", Kind: graph.KindMatMul, FLOPs: 1000, ParamBytes: 3 * device.GiB / 4})
	g.MustAddOp(&graph.Op{Name: "m2", Kind: graph.KindMatMul, FLOPs: 1000, ParamBytes: 3 * device.GiB / 4})
	c, err := device.SingleServer(2, device.WithMemory(4*device.GiB))
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	est := &fakeEst{}
	s, err := DPOS(g, c, est, Options{})
	if err != nil {
		t.Fatalf("DPOS: %v", err)
	}
	if s.Placement[0] == s.Placement[1] {
		t.Error("memory-capacity constraint ignored: both 3GiB ops on one device")
	}
}

func TestDPOSInfeasibleMemory(t *testing.T) {
	g := graph.New()
	g.MustAddOp(&graph.Op{Name: "huge", Kind: graph.KindMatMul, FLOPs: 1000, ParamBytes: 10 * device.GiB})
	c, err := device.SingleServer(2, device.WithMemory(4*device.GiB))
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	_, err = DPOS(g, c, &fakeEst{}, Options{})
	if !errors.Is(err, ErrNoFeasiblePlacement) {
		t.Errorf("err = %v, want ErrNoFeasiblePlacement", err)
	}
}

func TestDPOSColocationHonored(t *testing.T) {
	g := graph.New()
	a := g.MustAddOp(&graph.Op{Name: "a", Kind: graph.KindMatMul, FLOPs: 1000, OutputBytes: 10})
	b := g.MustAddOp(&graph.Op{Name: "b", Kind: graph.KindMatMul, FLOPs: 1000, OutputBytes: 10})
	ap := g.MustAddOp(&graph.Op{Name: "a/apply", Kind: graph.KindApplyGradient, FLOPs: 10, ColocateWith: "a"})
	g.MustConnect(a, b, 10)
	g.MustConnect(b, ap, 10)
	c := clusterN(t, 2)
	s, err := DPOS(g, c, &fakeEst{}, Options{})
	if err != nil {
		t.Fatalf("DPOS: %v", err)
	}
	if s.Placement[ap] != s.Placement[a] {
		t.Errorf("colocation violated: apply on %d, target on %d",
			s.Placement[ap], s.Placement[a])
	}
	_ = b
}

func TestDPOSInsertionFillsIdleGap(t *testing.T) {
	// Chain a -> b where b waits for a remote input, leaving an idle gap
	// on b's device that a small independent op should slot into without
	// delaying b.
	g := graph.New()
	a := g.MustAddOp(&graph.Op{Name: "a", Kind: graph.KindMatMul, FLOPs: int64(10 * time.Microsecond), OutputBytes: 100})
	b := g.MustAddOp(&graph.Op{Name: "b", Kind: graph.KindMatMul, FLOPs: int64(10 * time.Microsecond)})
	tiny := g.MustAddOp(&graph.Op{Name: "tiny", Kind: graph.KindRelu, FLOPs: int64(1 * time.Microsecond)})
	g.MustConnect(a, b, 100)
	c := clusterN(t, 2)
	est := &fakeEst{commLatency: 5 * time.Microsecond}
	s, err := DPOS(g, c, est, Options{})
	if err != nil {
		t.Fatalf("DPOS: %v", err)
	}
	checkScheduleValid(t, g, c, est, s)
	// The tiny op must not extend the makespan beyond the a->b chain.
	chain := s.Finish[b]
	if s.Makespan != chain {
		t.Errorf("Makespan = %v, want chain finish %v (tiny op should fill a gap)",
			s.Makespan, chain)
	}
	_ = a
	_ = tiny
}

// DevicesUsedCount is a test helper on Schedule.
func (s *Schedule) DevicesUsedCount() int {
	seen := make(map[int]bool)
	for _, d := range s.Placement {
		seen[d] = true
	}
	return len(seen)
}

// bruteForceOpt computes the optimal makespan of g on ndev devices with
// zero communication cost (the ideal system of Theorem 1), by enumerating
// all topological sequences and device assignments of semi-active
// schedules.
func bruteForceOpt(g *graph.Graph, exec []time.Duration, ndev int) time.Duration {
	n := g.NumOps()
	best := time.Duration(1<<62 - 1)
	finish := make([]time.Duration, n)
	avail := make([]time.Duration, ndev)
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = g.InDegree(i)
	}
	var rec func(done int)
	rec = func(done int) {
		if done == n {
			var mk time.Duration
			for _, f := range finish {
				if f > mk {
					mk = f
				}
			}
			if mk < best {
				best = mk
			}
			return
		}
		for id := 0; id < n; id++ {
			if indeg[id] != 0 {
				continue
			}
			indeg[id] = -1 // claim
			var ready time.Duration
			for _, p := range g.Predecessors(id) {
				if finish[p] > ready {
					ready = finish[p]
				}
			}
			for d := 0; d < ndev; d++ {
				st := ready
				if avail[d] > st {
					st = avail[d]
				}
				if st+exec[id] >= best {
					continue // prune
				}
				oldAvail := avail[d]
				avail[d] = st + exec[id]
				finish[id] = st + exec[id]
				for _, sc := range g.Successors(id) {
					indeg[sc]--
				}
				rec(done + 1)
				for _, sc := range g.Successors(id) {
					indeg[sc]++
				}
				avail[d] = oldAvail
			}
			finish[id] = 0
			indeg[id] = 0
		}
	}
	rec(0)
	return best
}

// TestTheorem1Bound checks the paper's performance guarantee
// w_DPOS <= 2*w_opt + C_max on random small DAGs with homogeneous devices.
func TestTheorem1Bound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		n := rng.Intn(5) + 2 // 2..6 ops
		ndev := rng.Intn(2) + 2
		g := graph.New()
		exec := make([]time.Duration, n)
		est := &fakeEst{exec: make(map[string]time.Duration)}
		for i := 0; i < n; i++ {
			name := "op" + strconv.Itoa(i)
			g.MustAddOp(&graph.Op{Name: name, Kind: graph.KindMatMul, OutputBytes: rng.Int63n(100) + 1})
			exec[i] = time.Duration(rng.Intn(50)+1) * time.Microsecond
			est.exec[name] = exec[i]
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					g.MustConnect(i, j, rng.Int63n(100)+1)
				}
			}
		}
		est.commPerByte = time.Duration(rng.Intn(200)) * time.Nanosecond
		est.commLatency = time.Duration(rng.Intn(5)) * time.Microsecond

		c, err := device.SingleServer(ndev)
		if err != nil {
			t.Fatalf("SingleServer: %v", err)
		}
		s, err := DPOS(g, c, est, Options{})
		if err != nil {
			t.Fatalf("trial %d: DPOS: %v", trial, err)
		}
		ranks, err := ComputeRanks(g, c, est)
		if err != nil {
			t.Fatalf("trial %d: ranks: %v", trial, err)
		}
		cmax := MaxChainComm(g, ranks)
		opt := bruteForceOpt(g, exec, ndev)

		var makespan time.Duration
		for i := 0; i < n; i++ {
			if s.Finish[i] > makespan {
				makespan = s.Finish[i]
			}
		}
		if makespan > 2*opt+cmax {
			t.Errorf("trial %d: bound violated: DPOS=%v opt=%v Cmax=%v (bound %v)",
				trial, makespan, opt, cmax, 2*opt+cmax)
		}
	}
}

func TestDPOSDeterministic(t *testing.T) {
	g, est := diamond(t)
	c := clusterN(t, 2)
	s1, err := DPOS(g, c, est, Options{})
	if err != nil {
		t.Fatalf("DPOS: %v", err)
	}
	s2, err := DPOS(g, c, est, Options{})
	if err != nil {
		t.Fatalf("DPOS: %v", err)
	}
	for i := range s1.Placement {
		if s1.Placement[i] != s2.Placement[i] {
			t.Fatal("DPOS not deterministic")
		}
	}
	if s1.Makespan != s2.Makespan {
		t.Error("DPOS makespan not deterministic")
	}
}

// TestDPOSAdaptsToHeterogeneousDevices checks generality beyond the paper's
// homogeneous testbed: with one device three times faster, the schedule
// should assign it the bulk of the work.
func TestDPOSAdaptsToHeterogeneousDevices(t *testing.T) {
	c, err := device.SingleServer(2)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	c.Device(1).PeakFLOPS /= 3
	c.Device(1).MemBandwidth /= 3
	oracle := kernels.NewDefaultOracle(c)

	// Eight independent heavy ops: a load-balancing schedule should give
	// the fast device roughly 3x the work of the slow one.
	g := graph.New()
	for i := 0; i < 8; i++ {
		g.MustAddOp(&graph.Op{
			Name: "op" + strconv.Itoa(i), Kind: graph.KindConv2D,
			FLOPs: 20e9, OutputBytes: 1 << 20, Batch: 8,
		})
	}
	sched, err := DPOS(g, c, oracle, Options{})
	if err != nil {
		t.Fatalf("DPOS: %v", err)
	}
	fast := 0
	for _, d := range sched.Placement {
		if d == 0 {
			fast++
		}
	}
	if fast < 5 {
		t.Errorf("fast device got %d of 8 ops, want the majority", fast)
	}
}

// TestDPOSZeroCostProducerFirst schedules x -> a -> b where a and b cost
// nothing to run and every transfer is free, and b has the smaller ID: a
// must still outrank b, so b starts only after a (which waits for x) is
// placed.
func TestDPOSZeroCostProducerFirst(t *testing.T) {
	g := graph.New()
	b := g.MustAddOp(&graph.Op{Name: "b", Kind: graph.KindRelu, OutputBytes: 10})
	a := g.MustAddOp(&graph.Op{Name: "a", Kind: graph.KindRelu, OutputBytes: 10})
	x := g.MustAddOp(&graph.Op{Name: "x", Kind: graph.KindRelu, OutputBytes: 10})
	g.MustConnect(x, a, 10)
	g.MustConnect(a, b, 10)
	est := &fakeEst{exec: map[string]time.Duration{"x": 10 * time.Microsecond, "a": 0, "b": 0}}
	c := clusterN(t, 2)
	r, err := ComputeRanks(g, c, est)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rank[a] <= r.Rank[b] || r.Rank[x] <= r.Rank[a] {
		t.Errorf("ranks x=%v a=%v b=%v: not strictly decreasing along x->a->b", r.Rank[x], r.Rank[a], r.Rank[b])
	}
	s, err := DPOS(g, c, est, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[b] < s.Finish[a] || s.Start[a] < s.Finish[x] {
		t.Errorf("starts x=%v a=%v b=%v, finishes x=%v a=%v: a consumer starts before its producer finishes",
			s.Start[x], s.Start[a], s.Start[b], s.Finish[x], s.Finish[a])
	}
}
