package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
)

// checkQueue verifies r.queue against a full sort of ctx's live op IDs by
// decreasing Rank, ties by ascending ID: it must be a permutation of them,
// equal the sort, and put every producer before its consumers.
func checkQueue(ctx *scheduleContext, r *Ranks) error {
	pos := make([]int, ctx.nOps)
	for i := range pos {
		pos[i] = -1
	}
	for p, id := range r.queue {
		if id < 0 || id >= ctx.nOps || id == ctx.dead || pos[id] >= 0 {
			return fmt.Errorf("queue[%d] = %d: not a live op or repeated", p, id)
		}
		pos[id] = p
	}
	want := make([]int, 0, ctx.nOps)
	for id := 0; id < ctx.nOps; id++ {
		if id != ctx.dead {
			want = append(want, id)
		}
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if r.Rank[a] != r.Rank[b] {
			return r.Rank[a] > r.Rank[b]
		}
		return a < b
	})
	if !slices.Equal(r.queue, want) {
		return fmt.Errorf("queue of %d ops differs from the sorted %d live ops", len(r.queue), len(want))
	}
	for id := 0; id < ctx.nOps; id++ {
		for _, ei := range ctx.outIdx[id] {
			if to := ctx.edgeAt(ei).To; pos[id] > pos[to] {
				return fmt.Errorf("edge %d->%d: consumer queued first (ranks %v, %v)",
					id, to, r.Rank[id], r.Rank[to])
			}
		}
	}
	return nil
}

// checkCandidateQueues builds, at the given worker count, the merged queue
// of every candidate the OS-DPOS walk of g can evaluate — each planned
// round's candidates against the graph the walk has committed before that
// round — and checks each with checkQueue. The fan-out shares the round's
// base ranks read-only, as the search does. It returns how many candidate
// queues it checked.
func checkCandidateQueues(t *testing.T, g *graph.Graph, cluster *device.Cluster, est cost.Estimator,
	opts Options, workers int) int {
	t.Helper()
	res, err := OSDPOS(g, cluster, est, opts)
	if err != nil {
		t.Fatalf("OSDPOS: %v", err)
	}
	est = cost.ReadSnapshot(est)
	start, err := initialPass(g, cluster, est, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkQueue(start.ctx, start.ranks); err != nil {
		t.Fatalf("base queue: %v", err)
	}
	cp, placed := placedCriticalPath(start.ctx, start.lat, start.sched)
	sort.SliceStable(cp, func(a, b int) bool { return placed.W[cp[a]] > placed.W[cp[b]] })
	releaseRanks(placed)
	releaseRanks(start.ranks)
	releaseSchedule(start.sched)
	o := &osdposRun{cluster: cluster, devs: cluster.Devices(), est: est, opts: opts,
		plan: buildPlan(g, cp, cluster.NumDevices(), opts.MaxSplitOps)}

	cur, committed, checked := g, 0, 0
	for k, round := range o.plan {
		b, err := o.makeBase(cur, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkQueue(b.ctx, b.ranks); err != nil {
			t.Fatalf("round %d base queue: %v", k, err)
		}
		errs := make([]error, len(round.cands))
		ok := make([]bool, len(round.cands))
		fanOut(workers, len(round.cands), func(i int) {
			c := round.cands[i]
			ov, err := graph.NewSplitOverlay(b.g, b.curID, c.dim, c.n)
			if err != nil {
				return
			}
			octx := overlayContext(b.ctx, ov)
			clat := extendLattice(b.lat, octx, o.devs, est)
			r := deltaRanksOverlay(b.ctx, b.ranks, octx, b.anc, clat)
			if err := checkQueue(octx, r); err != nil {
				errs[i] = fmt.Errorf("round %d %s n=%d: %w", k, c.dim, c.n, err)
			}
			ok[i] = errs[i] == nil
			releaseRanks(r)
			releaseExtension(clat)
			releaseContext(octx)
		})
		for i, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
			if ok[i] {
				checked++
			}
		}
		if committed < len(res.Splits) && res.Splits[committed].OpName == round.opName {
			sp := res.Splits[committed]
			if cur, err = graph.SplitOperation(cur, b.curID, sp.Dim, sp.N); err != nil {
				t.Fatal(err)
			}
			committed++
		}
		releaseRanks(b.ranks)
	}
	if committed != len(res.Splits) {
		t.Fatalf("replayed %d of %d committed splits", committed, len(res.Splits))
	}
	return checked
}

// TestCandidateQueueMatchesSort pins the merged rank queue of
// deltaRanksOverlay against a full sort for every candidate of the OS-DPOS
// walk on catalog cells (-short: the first three models) at 2, 4 and 8
// GPUs, with the candidates of a round fanned out on 1, 2 and 4 workers.
func TestCandidateQueueMatchesSort(t *testing.T) {
	catalog := models.Catalog()
	if testing.Short() {
		catalog = catalog[:3]
	}
	for _, spec := range catalog {
		for _, gpus := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s@%d", spec.Name, gpus), func(t *testing.T) {
				m, err := spec.Build(4)
				if err != nil {
					t.Fatal(err)
				}
				g, err := graph.BuildDataParallel(m, gpus)
				if err != nil {
					t.Fatal(err)
				}
				cluster := clusterN(t, gpus)
				est := kernels.NewDefaultOracle(cluster)
				for _, w := range []int{1, 2, 4} {
					opts := Options{MaxSplitOps: 2, Workers: w}
					if n := checkCandidateQueues(t, g, cluster, est, opts, w); n == 0 {
						t.Fatalf("w=%d: no candidate checked", w)
					}
				}
			})
		}
	}
}

// randomTieDAG builds a random DAG of n ops whose IDs are unrelated to its
// topological order, with execution times drawn from {0, 10µs} and
// splittable convolutions, so that with zero-cost transfers many ranks tie
// and zero-cost producers tie their consumers before the strict-rank clamp.
func randomTieDAG(rng *rand.Rand, n int) (*graph.Graph, *fakeEst) {
	g := graph.New()
	est := &fakeEst{exec: make(map[string]time.Duration)}
	for i := 0; i < n; i++ {
		name := "op" + strconv.Itoa(i)
		op := &graph.Op{Name: name, Kind: graph.KindRelu, OutputBytes: 1 << 10}
		if rng.Intn(2) == 0 {
			op.Kind, op.Batch, op.Channels = graph.KindConv2D, 8, 8
		}
		g.MustAddOp(op)
		est.exec[name] = time.Duration(rng.Intn(2)) * 10 * time.Microsecond
	}
	topo := rng.Perm(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				g.MustConnect(topo[i], topo[j], 1<<10)
			}
		}
	}
	return g, est
}

// TestCandidateQueueTiesAndZeroCosts runs the merged-queue check on random
// DAGs full of rank ties and zero-cost ops, for every candidate of the
// OS-DPOS walk, on 1, 2 and 4 workers.
func TestCandidateQueueTiesAndZeroCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	checked := 0
	for trial := 0; trial < 40; trial++ {
		g, est := randomTieDAG(rng, rng.Intn(10)+4)
		cluster := clusterN(t, rng.Intn(3)+2)
		for _, w := range []int{1, 2, 4} {
			checked += checkCandidateQueues(t, g, cluster, est, Options{Workers: w}, w)
		}
	}
	if checked == 0 {
		t.Fatal("no candidate checked")
	}
}
