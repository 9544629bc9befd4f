// Package core implements FastT's white-box scheduling heuristics
// (Sec. 5 of the paper): critical-path ranks, the DPOS list-scheduling
// algorithm (Alg. 1) computing device placement and execution order, and
// the OS-DPOS algorithm (Alg. 2) that additionally splits critical-path
// operations for fine-grained mixed data/model parallelism.
package core

import (
	"cmp"
	"slices"
	"time"

	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
)

// Ranks holds the per-op upward ranks and the cost vectors they derive
// from.
type Ranks struct {
	// W is the maximal execution time of each op over all devices (w_i).
	W []time.Duration
	// MinW is the minimal execution time of each op over all devices, the
	// per-op term of the RestMin pruning bound.
	MinW []time.Duration
	// CMax is, per edge index, the maximal transfer time of the edge's
	// tensor over all device pairs (c_{i,j}).
	CMax []time.Duration
	// Rank is the upward rank: rank_u(o_i) = w_i + max over successors of
	// (c_{i,j} + rank_u(o_j)).
	Rank []time.Duration
	// RestMin is an exact lower bound on the time between op i's finish and
	// the exit op's finish under ANY schedule: the maximum over paths from
	// i to an exit of the sum of successor MinW values (communication
	// contributes >= 0 and is ignored). dposCtx prunes a candidate as soon
	// as Finish[i] + RestMin[i] reaches the incumbent makespan bound.
	RestMin []time.Duration

	// queue is DPOS's priority queue: every live op ID (an overlay's
	// tombstoned target excluded) by decreasing Rank, ties by ascending
	// ID. Rank strictly decreases along edges, so the queue is a
	// topological order. computeRanksCtx sorts it once and
	// deltaRanksOverlay merges it from the base queue; every pass
	// scheduling under these ranks reads it, concurrently too.
	queue []int
	// moved is deltaRanksOverlay's merge scratch, pooled with the Ranks.
	moved []int
}

// cmpQueue is the queue order: decreasing Rank, ties by ascending ID.
func (r *Ranks) cmpQueue(a, b int) int {
	if ra, rb := r.Rank[a], r.Rank[b]; ra != rb {
		return cmp.Compare(rb, ra)
	}
	return cmp.Compare(a, b)
}

// accumulate sets Rank[id] and RestMin[id] from id's successors in ctx,
// whose values must already be final. Rank is kept at least one
// nanosecond above every successor's, so an op with zero execution time
// and zero-cost transfers still outranks its consumers and the queue stays
// topological; an op or transfer of positive cost already has that
// margin, so the clamp changes no rank of a positive-cost graph.
func (r *Ranks) accumulate(ctx *scheduleContext, id int) {
	best, succ, rest := time.Duration(0), time.Duration(-1), time.Duration(0)
	for _, ei := range ctx.outIdx[id] {
		to := ctx.edgeAt(ei).To
		if v := r.CMax[ei] + r.Rank[to]; v > best {
			best = v
		}
		if r.Rank[to] > succ {
			succ = r.Rank[to]
		}
		if v := r.MinW[to] + r.RestMin[to]; v > rest {
			rest = v
		}
	}
	r.Rank[id] = max(r.W[id]+best, succ+1)
	r.RestMin[id] = rest
}

// ComputeRanks computes w_i, c_{i,j} and rank_u for every op of g using the
// estimator, per Sec. 5.1. The returned Ranks is owned by the caller.
func ComputeRanks(g *graph.Graph, cluster *device.Cluster, est cost.Estimator) (*Ranks, error) {
	ctx, err := contextFor(g)
	if err != nil {
		return nil, err
	}
	est = cost.ReadSnapshot(est)
	return computeRanksCtx(ctx, latticeFor(ctx, cluster, est)), nil
}

// computeRanksCtx is the context-based core of ComputeRanks: topological
// order and edge indexes come from ctx, every cost from the dense lattice
// resolved for (ctx, cluster, estimator). The result comes from the ranks
// pool; internal callers release it when done.
func computeRanksCtx(ctx *scheduleContext, lat *costLattice) *Ranks {
	n := ctx.nOps
	nEdges := ctx.numEdges()
	r := ranksFromPool(n, nEdges)
	for id := 0; id < n; id++ {
		r.W[id] = lat.wAt(id)
		r.MinW[id] = lat.minWAt(id)
	}
	for ei := 0; ei < nEdges; ei++ {
		r.CMax[ei] = lat.maxCommAt(ei)
	}
	// Reverse topological accumulation.
	for i := len(ctx.topo) - 1; i >= 0; i-- {
		r.accumulate(ctx, ctx.topo[i])
	}
	r.queue = resizeInts(r.queue, n)
	for i := range r.queue {
		r.queue[i] = i
	}
	slices.SortFunc(r.queue, r.cmpQueue)
	return r
}

// ancestorsOf marks every op from which target is reachable (target itself
// excluded), by reverse BFS over ctx's incoming edge index. These are
// exactly the ops whose ranks a split of target can change: rank_u depends
// only on descendants, and target is a descendant of precisely its
// ancestors.
func ancestorsOf(ctx *scheduleContext, target int) []bool {
	anc := make([]bool, ctx.nOps)
	stack := make([]int, 0, 64)
	stack = append(stack, target)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range ctx.inIdx[id] {
			from := ctx.edgeAt(ei).From
			if !anc[from] {
				anc[from] = true
				stack = append(stack, from)
			}
		}
	}
	return anc
}

// deltaRanksOverlay produces the ranks of an overlay candidate from the
// base graph's ranks in O(ancestors + Δ) instead of a full O(V+E) pass:
// ranks depend only on descendants, so splitting op X leaves every
// non-ancestor's rank untouched. The delta ops are recomputed first in
// reverse dependency order — concat nodes (successors are base ops whose
// ranks are unchanged: they are descendants of X), then sub-ops, then split
// nodes — followed by X's ancestors in reverse base topological order,
// which restricted to ancestors is a valid reverse order of the overlay
// (the overlay adds no edges between base ops).
//
// The queue is merged rather than sorted: the base queue, minus X and the
// ancestors whose rank changed, is still in order, so only the delta ops
// and those ancestors are sorted and merged into it, in O(n + k log k) for
// k moved ops.
//
// bctx/baseRanks describe ov.Base(); octx must come from
// overlayContext(bctx, ov); anc from ancestorsOf(bctx, target); lat must be
// a lattice covering the overlay view (extendLattice of the base lattice,
// or a direct build over octx on the reference path). The result comes from
// the ranks pool; the caller releases it.
func deltaRanksOverlay(bctx *scheduleContext, baseRanks *Ranks, octx *scheduleContext,
	anc []bool, lat *costLattice) *Ranks {
	ov := octx.ov
	baseE := len(bctx.baseEdges)
	r := ranksFromPool(octx.nOps, octx.numEdges())
	copy(r.W, baseRanks.W)
	copy(r.MinW, baseRanks.MinW)
	copy(r.CMax, baseRanks.CMax)
	copy(r.Rank, baseRanks.Rank)
	copy(r.RestMin, baseRanks.RestMin)

	newOps := ov.NewOps()
	moved := r.moved[:0]
	for _, op := range newOps {
		r.W[op.ID] = lat.wAt(op.ID)
		r.MinW[op.ID] = lat.minWAt(op.ID)
		moved = append(moved, op.ID)
	}
	for j := range octx.extraEdges {
		r.CMax[baseE+j] = lat.maxCommAt(baseE + j)
	}

	// newOps layout: n sub-ops, then split nodes, then concat nodes.
	numSubs := ov.N()
	splitEnd := numSubs
	for splitEnd < len(newOps) && newOps[splitEnd].Kind == graph.KindSplit {
		splitEnd++
	}
	for _, op := range newOps[splitEnd:] { // concat nodes
		r.accumulate(octx, op.ID)
	}
	for _, op := range newOps[:numSubs] { // sub-ops
		r.accumulate(octx, op.ID)
	}
	for _, op := range newOps[numSubs:splitEnd] { // split nodes
		r.accumulate(octx, op.ID)
	}
	for i := len(bctx.topo) - 1; i >= 0; i-- {
		if id := bctx.topo[i]; anc[id] {
			r.accumulate(octx, id)
			if r.Rank[id] != baseRanks.Rank[id] {
				moved = append(moved, id)
			}
		}
	}

	slices.SortFunc(moved, r.cmpQueue)
	q := resizeInts(r.queue, octx.nOps-1)
	i, k := 0, 0
	for _, id := range baseRanks.queue {
		if id == octx.dead || (anc[id] && r.Rank[id] != baseRanks.Rank[id]) {
			continue
		}
		for ; k < len(moved) && r.cmpQueue(moved[k], id) < 0; k++ {
			q[i] = moved[k]
			i++
		}
		q[i] = id
		i++
	}
	copy(q[i:], moved[k:])
	r.queue, r.moved = q, moved
	return r
}

// edgeIndex builds a per-op list of indices into g.Edges() for outgoing
// edges, so rank accumulation can address the per-edge CMax values.
func edgeIndex(g *graph.Graph) [][]int {
	idx := make([][]int, g.NumOps())
	for i, e := range g.Edges() {
		idx[e.From] = append(idx[e.From], i)
	}
	return idx
}

// CriticalPath returns the op IDs of the critical path per the paper: start
// from the entry operation with the largest rank, then repeatedly step to
// the successor with the largest rank until reaching an exit operation.
func CriticalPath(g *graph.Graph, r *Ranks) []int {
	ctx, err := contextFor(g)
	if err != nil {
		return nil
	}
	return criticalPathCtx(ctx, r)
}

// criticalPathCtx walks the path through ctx's edge index without the
// per-step Successors allocations of the naive walk. Ties break toward the
// earliest outgoing edge, matching successor order. It works on both graph
// and overlay contexts (the dead op of an overlay has no entry and no
// edges, so the walk can never reach it).
func criticalPathCtx(ctx *scheduleContext, r *Ranks) []int {
	entries := ctx.entries
	if len(entries) == 0 {
		return nil
	}
	cur := entries[0]
	for _, id := range entries[1:] {
		if r.Rank[id] > r.Rank[cur] {
			cur = id
		}
	}
	path := []int{cur}
	for {
		eis := ctx.outIdx[cur]
		if len(eis) == 0 {
			return path
		}
		next := ctx.edgeAt(eis[0]).To
		for _, ei := range eis[1:] {
			if to := ctx.edgeAt(ei).To; r.Rank[to] > r.Rank[next] {
				next = to
			}
		}
		path = append(path, next)
		cur = next
	}
}

// MaxChainComm returns C_max of Theorem 1: the maximal total data
// transmission time along any chain of the DAG, using the per-edge maximal
// transfer times of r.
func MaxChainComm(g *graph.Graph, r *Ranks) time.Duration {
	order, err := g.TopoOrder()
	if err != nil {
		return 0
	}
	idx := edgeIndex(g)
	chain := make([]time.Duration, g.NumOps())
	var best time.Duration
	edges := g.Edges()
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		for _, ei := range idx[id] {
			e := edges[ei]
			if v := r.CMax[ei] + chain[e.To]; v > chain[id] {
				chain[id] = v
			}
		}
		if chain[id] > best {
			best = chain[id]
		}
	}
	return best
}
