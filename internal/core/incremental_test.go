package core

import (
	"errors"
	"testing"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
)

// evalOverlay evaluates a split candidate the way OSDPOS does, against
// evalClone (oracle_test.go) as its reference: copy-on-write overlay,
// patched context, extended lattice, delta ranks.
func evalOverlay(t *testing.T, baseCtx *scheduleContext, baseRanks *Ranks, anc []bool,
	opID int, dim graph.SplitDim, n int, cluster *device.Cluster, est *kernels.Oracle,
	baseLat *costLattice) (*graph.SplitOverlay, *Schedule, error) {
	t.Helper()
	ov, err := graph.NewSplitOverlay(baseCtx.g, opID, dim, n)
	if err != nil {
		return nil, nil, err
	}
	octx := overlayContext(baseCtx, ov)
	clat := extendLattice(baseLat, octx, cluster.Devices(), est)
	ranks := deltaRanksOverlay(baseCtx, baseRanks, octx, anc, clat)
	s, err := dposCtx(octx, cluster, clat, Options{}, ranks, 0, nil)
	releaseRanks(ranks)
	releaseLattice(clat)
	releaseOverlayContext(octx)
	return ov, s, err
}

// TestOverlayCandidateEquivalence is the catalog-wide property behind the
// incremental calculator: for every model and every legal (op, dim, n), the
// overlay-evaluated candidate schedule must be byte-identical — placement,
// start/finish, execution order, makespan — to the SplitOperation-clone
// schedule under the overlay's CloneID mapping, and both paths must agree
// on which candidates are infeasible.
func TestOverlayCandidateEquivalence(t *testing.T) {
	const devices = 3
	cluster, err := device.SingleServer(devices)
	if err != nil {
		t.Fatal(err)
	}
	est := kernels.NewDefaultOracle(cluster)
	for _, spec := range models.Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			g, err := spec.Build(2)
			if err != nil {
				t.Fatal(err)
			}
			baseCtx, err := contextFor(g)
			if err != nil {
				t.Fatal(err)
			}
			baseLat := latticeFor(baseCtx, cluster, est)
			baseRanks := computeRanksCtx(baseCtx, baseLat)
			defer releaseRanks(baseRanks)

			// Under -race (tier 2 runs -race -short) a full sweep is too
			// slow; stride over the splittable ops instead.
			stride := 1
			if testing.Short() {
				stride = 7
			}
			tested := 0
			next := 0
			for opID := 0; opID < g.NumOps(); opID++ {
				dims := g.Op(opID).SplittableDims()
				if len(dims) == 0 {
					continue
				}
				if next > 0 {
					next--
					continue
				}
				next = stride - 1
				var anc []bool
				for _, dim := range dims {
					for n := 2; n <= devices; n++ {
						_, cs, cerr := evalClone(g, opID, dim, n, cluster, est, Options{}, buildDirectLattice)
						if anc == nil {
							anc = ancestorsOf(baseCtx, opID)
						}
						ov, os, oerr := evalOverlay(t, baseCtx, baseRanks, anc,
							opID, dim, n, cluster, est, baseLat)
						if (cerr == nil) != (oerr == nil) {
							t.Fatalf("op %d %s n=%d: clone err %v, overlay err %v",
								opID, dim, n, cerr, oerr)
						}
						if cerr != nil {
							continue
						}
						tested++
						compareCandidateSchedules(t, ov, os, cs, opID, dim, n)
						releaseSchedule(cs)
						releaseSchedule(os)
					}
				}
			}
			if tested == 0 {
				t.Fatalf("%s: no candidate was legal; property untested", spec.Name)
			}
		})
	}
}

func compareCandidateSchedules(t *testing.T, ov *graph.SplitOverlay,
	os, cs *Schedule, opID int, dim graph.SplitDim, n int) {
	t.Helper()
	if os.Makespan != cs.Makespan {
		t.Fatalf("op %d %s n=%d: makespan overlay %v, clone %v",
			opID, dim, n, os.Makespan, cs.Makespan)
	}
	dead := ov.Target().ID
	for id := 0; id < ov.NumOps(); id++ {
		if id == dead {
			continue
		}
		cid := ov.CloneID(id)
		if os.Placement[id] != cs.Placement[cid] {
			t.Fatalf("op %d %s n=%d: placement of %q: overlay dev %d, clone dev %d",
				opID, dim, n, ov.Op(id).Name, os.Placement[id], cs.Placement[cid])
		}
		if os.Start[id] != cs.Start[cid] || os.Finish[id] != cs.Finish[cid] {
			t.Fatalf("op %d %s n=%d: timing of %q: overlay [%v,%v], clone [%v,%v]",
				opID, dim, n, ov.Op(id).Name,
				os.Start[id], os.Finish[id], cs.Start[cid], cs.Finish[cid])
		}
	}
	// The execution order must match once the tombstone is dropped: live
	// overlay ops mapped through CloneID reproduce the clone order exactly
	// (which also pins the relative priorities of every live op).
	pos := 0
	for _, id := range os.Order {
		if id == dead {
			continue
		}
		if want := cs.Order[pos]; ov.CloneID(id) != want {
			t.Fatalf("op %d %s n=%d: order position %d: overlay op %d (-> %d), clone op %d",
				opID, dim, n, pos, id, ov.CloneID(id), want)
		}
		pos++
	}
	if pos != len(cs.Order) {
		t.Fatalf("op %d %s n=%d: live order length %d, clone %d",
			opID, dim, n, pos, len(cs.Order))
	}
}

// TestOSDPOSIncrementalEquivalence runs the oracle comparison of
// TestOSDPOSDeterminismMatrix on two 2-GPU servers, where a transfer's cost
// depends on whether the device pair shares a server: the incremental
// calculator — overlays, lattice extension, comm-class sharing, delta ranks,
// pruning — must still return osdposOracle's strategy at Workers 1 and 8.
func TestOSDPOSIncrementalEquivalence(t *testing.T) {
	cluster, err := device.NewCluster(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	matchOSDPOSOracle(t, cluster, []int{1, 8})
}

// TestRestMinIsValidLowerBound checks the pruning bound's soundness
// directly on scheduled graphs: for every op, the exit finish time is at
// least the op's finish plus RestMin — the inequality that makes pruning
// exact (a candidate aborted at Finish+RestMin >= bound could never have
// completed below the bound).
func TestRestMinIsValidLowerBound(t *testing.T) {
	cluster, err := device.SingleServer(3)
	if err != nil {
		t.Fatal(err)
	}
	est := kernels.NewDefaultOracle(cluster)
	for _, spec := range models.Catalog() {
		g, err := spec.Build(2)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := contextFor(g)
		if err != nil {
			t.Fatal(err)
		}
		lat := latticeFor(ctx, cluster, est)
		ranks := computeRanksCtx(ctx, lat)
		sched, err := dposCtx(ctx, cluster, lat, Options{}, ranks, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < g.NumOps(); id++ {
			if lb := sched.Finish[id] + ranks.RestMin[id]; lb > sched.Makespan {
				t.Fatalf("%s: op %q violates bound: finish %v + restMin %v > makespan %v",
					spec.Name, g.Op(id).Name, sched.Finish[id], ranks.RestMin[id], sched.Makespan)
			}
		}
		releaseSchedule(sched)
		releaseRanks(ranks)
	}
}

// TestDPOSCtxPrunes pins the errPruned contract: with a bound at or below
// the achievable makespan the run aborts with errPruned, and with a bound
// above it the schedule completes untouched.
func TestDPOSCtxPrunes(t *testing.T) {
	g, est := diamond(t)
	c := clusterN(t, 2)
	ctx, err := contextFor(g)
	if err != nil {
		t.Fatal(err)
	}
	lat := latticeFor(ctx, c, est)
	ranks := computeRanksCtx(ctx, lat)
	defer releaseRanks(ranks)

	full, err := dposCtx(ctx, c, lat, Options{}, ranks, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := full.Makespan
	releaseSchedule(full)

	if _, err := dposCtx(ctx, c, lat, Options{}, ranks, time.Nanosecond, nil); !errors.Is(err, errPruned) {
		t.Fatalf("tiny bound: err %v, want errPruned", err)
	}
	if _, err := dposCtx(ctx, c, lat, Options{}, ranks, want, nil); !errors.Is(err, errPruned) {
		t.Fatalf("bound == achievable makespan must prune (strict improvement required), got %v", err)
	}
	s, err := dposCtx(ctx, c, lat, Options{}, ranks, want+1, nil)
	if err != nil {
		t.Fatalf("loose bound: %v", err)
	}
	if s.Makespan != want {
		t.Fatalf("loose bound changed makespan: %v, want %v", s.Makespan, want)
	}
	releaseSchedule(s)
}
