package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/strategy"
)

// SplitResult is the output of OS-DPOS: the rewritten graph (with accepted
// splits applied), its schedule, and the split list SP[].
type SplitResult struct {
	// Graph is the final computation graph after all accepted splits.
	Graph *graph.Graph
	// Schedule is the DPOS schedule of Graph.
	Schedule *Schedule
	// Splits is the accepted operation split list SP[] of Alg. 2.
	Splits []graph.SplitDecision
	// Evaluated counts candidate (dimension, split count) DPOS evaluations
	// run to completion, for strategy-computation-time analysis (Table 4).
	// With concurrent workers the live shared bound can abort a candidate
	// the sequential pass would have finished, so the Evaluated/Pruned
	// split (never the strategy) may vary with worker count and timing;
	// Evaluated never exceeds the sequential pass's count.
	Evaluated int
	// Pruned counts candidate evaluations aborted early because a lower
	// bound on their makespan proved they could not beat the incumbent
	// (Table 4).
	Pruned int
	// Passes counts the DPOS list-scheduling passes the search ran, bounded
	// or not, aborted or complete: the initial pass, the seed evaluation,
	// every candidate and every rerun.
	Passes int
	// Seeded reports that Options.Seed was evaluated on the target cluster
	// and its exact makespan (SeedBound) tightened the initial incumbent
	// bound of every round. False when no seed was given or when the seed
	// failed to materialize or schedule (the search then ran cold).
	Seeded bool
	// SeedBound is the seed strategy's DPOS-evaluated makespan on the
	// target cluster — the warm incumbent the search had to beat.
	SeedBound time.Duration
	// SeedWon reports that no candidate beat the seed bound: the result is
	// the re-materialized seed strategy itself rather than a searched one.
	SeedWon bool
}

// splitCand is one (dimension, split count) candidate for a CP op.
type splitCand struct {
	dim graph.SplitDim
	n   int
}

// candOutcome is the result of one candidate evaluation. Completed
// candidates retain their pooled schedule until the round's reduce: the
// winner's is adopted as the schedule of the materialized graph (a completed
// bounded run is exact, and an overlay schedule is byte-identical to a
// fresh pass over the materialized clone — the equivalence the incremental
// tests pin down), and the losers' are released.
type candOutcome struct {
	makespan  time.Duration
	sched     *Schedule     // retained on ok; released by the reduce
	ok        bool          // scheduled to completion
	pruned    bool          // aborted by the makespan bound
	bound     time.Duration // the bound in effect at the abort (pruned only)
	completes bool          // pruned, and proven to complete unbounded (prunedError)
}

// releaseOutcomes returns every retained candidate schedule to the pool.
func releaseOutcomes(results []candOutcome) {
	for i := range results {
		if results[i].sched != nil {
			releaseSchedule(results[i].sched)
			results[i].sched = nil
		}
	}
}

// compactWinner rewrites a winner schedule produced in an overlay's ID space
// (dead target slot in place, delta ops appended) into the compact ID space
// of the materialized SplitOperation graph, following the overlay's strictly
// monotone CloneID map: IDs below the dead slot are unchanged, IDs above it
// shift down by one. O(nOps), replacing the full DPOS pass the materialized
// winner would otherwise pay to recompute a schedule already in hand.
func compactWinner(s *Schedule, dead int) *Schedule {
	n := len(s.Placement) - 1
	out := scheduleFromPool(n)
	out.Makespan = s.Makespan
	for id := 0; id <= n; id++ {
		if id == dead {
			continue
		}
		c := id
		if id > dead {
			c = id - 1
		}
		out.Placement[c] = s.Placement[id]
		out.Start[c] = s.Start[id]
		out.Finish[c] = s.Finish[id]
	}
	k := 0
	for _, id := range s.Order {
		if id == dead {
			continue
		}
		if id > dead {
			id--
		}
		out.Order[k] = id
		k++
	}
	for i, id := range out.Order {
		out.Priorities[id] = i
	}
	if len(s.CriticalPath) > 0 {
		cp := make([]int, 0, len(s.CriticalPath))
		for _, id := range s.CriticalPath {
			if id == dead {
				continue
			}
			if id > dead {
				id--
			}
			cp = append(cp, id)
		}
		out.CriticalPath = cp
	}
	releaseSchedule(s)
	return out
}

// publishIncumbent lowers the shared live bound to m if m is smaller,
// racing CAS-free against other workers doing the same.
func publishIncumbent(live *atomic.Int64, m time.Duration) {
	for {
		cur := live.Load()
		if int64(m) >= cur || live.CompareAndSwap(cur, int64(m)) {
			return
		}
	}
}

// roundPlan is one statically planned round of the OS-DPOS walk: the
// critical-path operation (by name — names survive graph rewrites, IDs do
// not) and its full candidate grid in the canonical (dimension order,
// ascending split count) enumeration order the deterministic reduce
// depends on.
type roundPlan struct {
	opName string
	cands  []splitCand
}

// buildPlan enumerates the whole (critical-path op × dimension × split
// count) candidate grid up front. The plan is valid for every future round
// regardless of which splits get accepted: op names are unique and the
// sub-ops a split introduces take "/partN_of_M"-style suffixed names, so a
// planned target can never collide with or be removed by an earlier
// round's rewrite, and SplittableDims depends only on the op's own fields,
// which rewrites copy verbatim. Each round then only resolves its planned
// op by name in the current graph (retarget).
//
// Eligibility and the MaxSplitOps cap mirror the sequential walk exactly:
// ops with no splittable dimension are skipped without consuming budget.
func buildPlan(g *graph.Graph, cp []int, numDev, maxSplitOps int) []roundPlan {
	var plan []roundPlan
	if numDev < 2 {
		return nil
	}
	for _, cpID := range cp {
		op := g.Op(cpID)
		dims := op.SplittableDims()
		if len(dims) == 0 {
			continue
		}
		if maxSplitOps > 0 && len(plan) >= maxSplitOps {
			break
		}
		cands := make([]splitCand, 0, len(dims)*(numDev-1))
		for _, dim := range dims {
			for n := 2; n <= numDev; n++ {
				cands = append(cands, splitCand{dim: dim, n: n})
			}
		}
		plan = append(plan, roundPlan{opName: op.Name, cands: cands})
	}
	return plan
}

// roundBase is the immutable-during-fan-out state one round's candidates
// are evaluated against: the current graph, its scheduling state (context,
// dense cost lattice and ranks), the split target resolved in that graph,
// and the incumbent makespan the round must strictly beat.
type roundBase struct {
	g *graph.Graph
	graphState
	anc   []bool // ancestors of curID
	curID int    // split target op ID in g; -1 when unresolved
	ftOld time.Duration
}

// osdposRun carries one OSDPOS call's invariants across its rounds.
type osdposRun struct {
	ctx     context.Context
	cluster *device.Cluster
	devs    []*device.Device
	est     cost.Estimator
	opts    Options
	workers int
	plan    []roundPlan
	res     *SplitResult
	passes  atomic.Int64 // DPOS passes of candidates and reruns
}

// ctxErr reports the run's cancellation state. It is checked between
// candidate evaluations and at every round boundary, so cancellation latency
// is bounded by one DPOS candidate pass (milliseconds), never a whole
// search.
func (o *osdposRun) ctxErr() error {
	if o.ctx == nil {
		return nil
	}
	return o.ctx.Err()
}

// retarget resolves plan[planIdx]'s operation in b.g and refreshes the
// ancestor mask. The lookup cannot fail (see buildPlan); the -1 guard only
// makes a violated invariant fail closed as an all-infeasible round.
func (o *osdposRun) retarget(b *roundBase, planIdx int) {
	b.curID, b.anc = -1, nil
	if planIdx >= len(o.plan) {
		return
	}
	if cur, ok := b.g.OpByName(o.plan[planIdx].opName); ok {
		b.curID = cur.ID
		b.anc = ancestorsOf(b.ctx, b.curID)
	}
}

// makeBase materializes graph g into the evaluation base for round planIdx
// with incumbent ftOld. The returned base's state comes from the pools; the
// next commit (or the end of the search) releases it.
func (o *osdposRun) makeBase(g *graph.Graph, planIdx int, ftOld time.Duration) (*roundBase, error) {
	st, err := newGraphState(g, o.devs, o.est)
	if err != nil {
		return nil, err
	}
	b := &roundBase{g: g, graphState: st, ftOld: ftOld}
	o.retarget(b, planIdx)
	return b, nil
}

// evalCand runs one candidate against base b under the static bound and
// (optionally) a live shared incumbent. All base state is read-only during
// a fan-out, so any number of evalCand calls may run at once.
func (o *osdposRun) evalCand(b *roundBase, c splitCand, bound time.Duration, live *atomic.Int64) candOutcome {
	ov, err := graph.NewSplitOverlay(b.g, b.curID, c.dim, c.n)
	if err != nil {
		return candOutcome{} // extent too small for this n, etc.
	}
	octx := overlayContext(b.ctx, ov)
	clat := extendLattice(b.lat, octx, o.devs, o.est)
	ranks := deltaRanksOverlay(b.ctx, b.ranks, octx, b.anc, clat)
	o.passes.Add(1)
	s, err := dposCtx(octx, o.cluster, clat, o.opts, ranks, bound, live, nil)
	releaseRanks(ranks)
	releaseExtension(clat)
	releaseContext(octx)
	if err != nil {
		var pe *prunedError
		if errors.As(err, &pe) {
			return candOutcome{pruned: true, bound: pe.bound, completes: pe.completes}
		}
		return candOutcome{} // infeasible under memory constraints
	}
	if live != nil {
		publishIncumbent(live, s.Makespan)
	}
	return candOutcome{makespan: s.Makespan, sched: s, ok: true}
}

// reduceFirstMin is the deterministic reduce shared by both candidate
// fan-outs (OS-DPOS rounds and ColocateSync probes): scan position-indexed
// outcomes in enumeration order with a strictly-less comparison and return
// the first minimum among completed ones (-1 when none completed) and its
// makespan.
//
// With a live shared bound in use, ties are re-resolved back to the
// sequential answer: a pruned outcome's makespan is >= its abort bound, and
// abort bounds never drop below the final minimum (only completed makespans
// are published), so exactly the outcomes aborted at bound == bestFT could
// have tied it. The sequential reference prefers the earliest tie, so those
// before the provisional winner are re-run via rerun under bestFT+1 in
// order; the first to complete (proving makespan == bestFT) replaces its
// outcome in results and wins.
func reduceFirstMin(results []candOutcome, liveUsed bool,
	rerun func(i int, bound time.Duration) candOutcome) (bestIdx int, bestFT time.Duration) {
	bestIdx = -1
	for i, r := range results {
		if r.ok && (bestIdx < 0 || r.makespan < bestFT) {
			bestIdx, bestFT = i, r.makespan
		}
	}
	if liveUsed && bestIdx > 0 {
		for i := 0; i < bestIdx; i++ {
			if !results[i].pruned || results[i].bound != bestFT {
				continue
			}
			if full := rerun(i, bestFT+1); full.ok {
				results[i] = full
				return i, bestFT
			}
		}
	}
	return bestIdx, bestFT
}

// allPrunedCompletes settles the round no outcome completed in: it returns
// the first pruned outcome, in enumeration order, that would complete
// without a bound, or -1 when each is infeasible when finished. An outcome
// carrying the completion proof is taken as it stands; the others are
// finished through rerun, whose completed schedule is released. With no
// completion there was no published incumbent, so the pruned set is the
// sequential pass's at any worker count.
func allPrunedCompletes(results []candOutcome, rerun func(i int) candOutcome) int {
	for i, r := range results {
		if !r.pruned {
			continue
		}
		if r.completes {
			return i
		}
		if full := rerun(i); full.ok {
			releaseSchedule(full.sched)
			return i
		}
	}
	return -1
}

// reduceRound is the deterministic commit point of every OS-DPOS round, at
// any worker count: reduce the results with reduceFirstMin, count them into
// Evaluated/Pruned, and decide the round's fate. Returns the winning index
// (-1 when no candidate completed) and whether the exploration stops after
// this round (Alg. 2's first non-improving operation). When bestIdx < 0,
// no outcome retains a schedule on return.
func (o *osdposRun) reduceRound(b *roundBase, cands []splitCand, results []candOutcome, liveUsed bool) (bestIdx int, stop bool) {
	bestIdx, bestFT := reduceFirstMin(results, liveUsed, func(i int, bound time.Duration) candOutcome {
		return o.evalCand(b, cands[i], bound, nil)
	})
	evaluated, pruned := 0, 0
	for _, r := range results {
		if r.pruned {
			pruned++
		} else if r.ok {
			evaluated++
		}
	}

	if bestIdx < 0 && pruned > 0 {
		// Every candidate was pruned or infeasible. Whether Alg. 2
		// continues to the next CP op (all infeasible) or stops (some
		// candidate completes, necessarily at >= ftOld) depends on whether
		// a pruned candidate would finish. Each round that ends the walk
		// gets here. The pruned candidates up to the first that would
		// complete are recounted as the unbounded walk counts them:
		// nowhere when they run out of memory, and that one as evaluated.
		k := allPrunedCompletes(results, func(i int) candOutcome {
			return o.evalCand(b, cands[i], 0, nil)
		})
		for i, r := range results {
			if r.pruned && (k < 0 || i <= k) {
				pruned--
			}
		}
		if k >= 0 {
			evaluated++
		}
		o.res.Evaluated += evaluated
		o.res.Pruned += pruned
		return -1, k >= 0
	}
	o.res.Evaluated += evaluated
	o.res.Pruned += pruned
	if bestIdx < 0 {
		return -1, false // every candidate infeasible: try the next CP op
	}
	if bestFT >= b.ftOld {
		// First non-improving operation ends the exploration (Alg. 2
		// lines 11-13). A bounded completion beats the bound by
		// construction, so only a zero incumbent (a zero bound does not
		// prune) gets here.
		releaseOutcomes(results)
		return -1, true
	}
	return bestIdx, false
}

// commitWinner materializes the accepted winner of round planIdx as a real
// graph, adopts the schedule its evaluation already produced (a completed
// bounded run is exact, and an overlay schedule is byte-identical to a
// fresh pass over the materialized clone, so rescheduling would recompute
// the same bytes), records the split, and returns the base for round
// planIdx+1.
func (o *osdposRun) commitWinner(b *roundBase, cands []splitCand, results []candOutcome,
	bestIdx, planIdx int) (*roundBase, error) {
	wsched := results[bestIdx].sched
	results[bestIdx].sched = nil
	releaseOutcomes(results)
	wsched = compactWinner(wsched, b.curID)
	winner, err := graph.SplitOperation(b.g, b.curID, cands[bestIdx].dim, cands[bestIdx].n)
	if err != nil {
		releaseSchedule(wsched)
		return nil, fmt.Errorf("materialize split: %w", err)
	}
	nb, err := o.makeBase(winner, planIdx+1, wsched.Makespan)
	if err != nil {
		releaseSchedule(wsched)
		return nil, fmt.Errorf("materialize split: %w", err)
	}
	releaseSchedule(o.res.Schedule)
	o.res.Graph = winner
	o.res.Schedule = wsched
	o.res.Splits = append(o.res.Splits, graph.SplitDecision{
		OpName: o.plan[planIdx].opName, Dim: cands[bestIdx].dim, N: cands[bestIdx].n,
	})
	b.release()
	return nb, nil
}

// run is the OS-DPOS round loop, the same for every worker count: per
// planned round, fan the candidates out against the current base, reduce
// them deterministically (reduceRound), and commit the winner
// (commitWinner). At Workers <= 1 the candidates run on the caller in
// enumeration order under the static incumbent bound only — the literal
// sequential reference. At Workers > 1 they fan out under a live shared
// bound as well, and the reduce restores the reference's committed
// strategy byte for byte.
func (o *osdposRun) run(base *roundBase) (*roundBase, error) {
	for k := 0; k < len(o.plan); k++ {
		cands := o.plan[k].cands
		bound := base.ftOld
		var live *atomic.Int64
		if o.workers > 1 {
			live = new(atomic.Int64)
			live.Store(int64(base.ftOld))
		}
		results := make([]candOutcome, len(cands))
		fanOut(o.workers, len(cands), func(i int) {
			if o.ctxErr() == nil {
				results[i] = o.evalCand(base, cands[i], bound, live)
			}
		})
		if err := o.ctxErr(); err != nil {
			releaseOutcomes(results)
			return base, err
		}
		bestIdx, stop := o.reduceRound(base, cands, results, live != nil)
		if stop {
			break
		}
		if bestIdx < 0 {
			o.retarget(base, k+1)
			continue
		}
		nb, err := o.commitWinner(base, cands, results, bestIdx, k)
		if err != nil {
			return base, err
		}
		base = nb
	}
	return base, nil
}

// OSDPOS implements Alg. 2 (Operation Splitting DPOS): run DPOS, compute
// the placement-aware critical path, then walk its operations in descending
// computation time, trying every parallelizable dimension and split count;
// a split is kept only if it strictly reduces the finish time of the exit
// operation, and the walk stops at the first operation whose best split
// does not improve it.
//
// The walk's rounds are planned statically up front (buildPlan) as a flat
// (critical-path op × dimension × split count) candidate grid, and run
// one round at a time: with Workers > 1 a round's candidates fan out
// across goroutines (fanOut) and the round joins before it commits. Each
// candidate is evaluated incrementally: a
// copy-on-write graph.SplitOverlay records the rewrite as a delta,
// overlayContext patches the base edge indexes in O(Δ), extendLattice
// patches the dense cost lattice in O(Δ), deltaRanksOverlay reuses the
// base ranks everywhere outside the rewritten region and the target's
// ancestors, and dposCtx runs under the incumbent-makespan bound so
// hopeless candidates abort early. With workers > 1 the bound is *live*:
// every completed candidate publishes its makespan to a shared per-round
// atomic and in-flight candidates prune against the tightest value, so one
// cheap improving candidate aborts its round-mates mid-run.
//
// Rounds commit strictly in plan order through the deterministic reduce
// (reduceRound): position-indexed results in enumeration order, a
// strictly-less comparison, and live-bound ties resolved back to the
// first-minimum winner. Every worker count returns the strategy of the
// literal sequential Alg. 2 — SplitOperation clones, direct estimator
// calls, no bound — byte for byte; that walk is kept as the test oracle.
func OSDPOS(g *graph.Graph, cluster *device.Cluster, est cost.Estimator, opts Options) (*SplitResult, error) {
	return OSDPOSCtx(context.Background(), g, cluster, est, opts)
}

// OSDPOSCtx is OSDPOS under a context: cancelling ctx aborts the candidate
// search at the next candidate or round boundary and returns ctx.Err(). The
// per-request timeouts of the strategy service and Ctrl-C on `fastt compute`
// both arrive here. A nil ctx means context.Background().
func OSDPOSCtx(ctx context.Context, g *graph.Graph, cluster *device.Cluster, est cost.Estimator, opts Options) (*SplitResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	est = cost.ReadSnapshot(est)
	start, err := initialPass(g, cluster, est, opts)
	if err != nil {
		return nil, fmt.Errorf("initial DPOS: %w", err)
	}
	return osdposFrom(ctx, g, cluster, est, opts, start)
}

// baseSchedule is a schedule of a graph under Options.Pinned, with the
// scheduling state it was computed from and the DPOS passes spent on it.
// ColocateSync's result is one: OS-DPOS under the pins ColocateSync
// accepted starts from exactly that schedule.
type baseSchedule struct {
	graphState // pooled; owned by the holder
	sched      *Schedule
	pins       map[string]int // accepted colocation pins (ColocateSync only)
	passes     int
}

// initialPass runs the one unbounded DPOS pass of g that both ColocateSync
// and OS-DPOS start from.
func initialPass(g *graph.Graph, cluster *device.Cluster, est cost.Estimator, opts Options) (*baseSchedule, error) {
	st, err := newGraphState(g, cluster.Devices(), est)
	if err != nil {
		return nil, err
	}
	sched, err := dposCtx(st.ctx, cluster, st.lat, opts, st.ranks, 0, nil, nil)
	if err != nil {
		st.release()
		return nil, err
	}
	return &baseSchedule{graphState: st, sched: sched, passes: 1}, nil
}

// osdposFrom runs OS-DPOS from start, a schedule of g under opts.Pinned on
// the snapshotted estimator est. It takes ownership of start's schedule and
// state.
func osdposFrom(ctx context.Context, g *graph.Graph, cluster *device.Cluster, est cost.Estimator,
	opts Options, start *baseSchedule) (*SplitResult, error) {
	sched := start.sched
	if err := ctx.Err(); err != nil {
		start.release()
		releaseSchedule(sched)
		return nil, err
	}
	res := &SplitResult{Graph: g, Schedule: sched, Passes: start.passes}

	// Warm start (Theorem 1's pruning argument applied across searches):
	// a caller-supplied prior strategy is evaluated once for an exact
	// feasible makespan, and the walk's incumbent starts at
	// min(initial DPOS, seed). Every commit strictly beats the incumbent,
	// so the first commit already beats the seed and from then on the
	// seeded and cold walks carry identical incumbents — the committed
	// strategy is byte-identical to the cold search's. When nothing beats
	// the seed, the re-materialized seed itself is the result (SeedWon).
	var seedGraph *graph.Graph
	var seedSched *Schedule
	if opts.Seed != nil {
		var err error
		seedGraph, seedSched, err = evalSeed(g, cluster, est, opts)
		if seedGraph != nil {
			res.Passes++
		}
		if err != nil {
			start.release()
			releaseSchedule(sched)
			return nil, err
		}
		if seedSched != nil {
			res.Seeded = true
			res.SeedBound = seedSched.Makespan
		}
	}
	ftOld := sched.Makespan
	if seedSched != nil && seedSched.Makespan < ftOld {
		ftOld = seedSched.Makespan
	}

	// Critical path based on S_new and G (Alg. 2 line 4): ranks evaluated
	// at the placed devices rather than worst-case maxima.
	cp, placedRanks := placedCriticalPath(start.ctx, start.lat, sched)
	// Sort CP by descending computation time (line 5).
	execOnPlaced := placedRanks.W
	sort.SliceStable(cp, func(a, b int) bool {
		return execOnPlaced[cp[a]] > execOnPlaced[cp[b]]
	})
	releaseRanks(placedRanks)

	o := &osdposRun{
		ctx:     ctx,
		cluster: cluster,
		devs:    cluster.Devices(),
		est:     est,
		opts:    opts,
		workers: opts.WorkerCount(),
		plan:    buildPlan(g, cp, cluster.NumDevices(), opts.MaxSplitOps),
		res:     res,
	}
	base := &roundBase{g: g, graphState: start.graphState, ftOld: ftOld}
	o.retarget(base, 0)

	final, err := o.run(base)
	final.release()
	res.Passes += int(o.passes.Load())
	if err != nil {
		if seedSched != nil {
			releaseSchedule(seedSched)
		}
		return nil, err
	}
	if seedSched != nil {
		if seedSched.Makespan < res.Schedule.Makespan {
			// No candidate beat the seed (a commit would have): fall back
			// to the re-materialized seed strategy.
			releaseSchedule(res.Schedule)
			res.Graph = seedGraph
			res.Schedule = seedSched
			res.Splits = append([]graph.SplitDecision(nil), opts.Seed.Splits...)
			res.SeedWon = true
		} else {
			releaseSchedule(seedSched)
		}
	}
	return res, nil
}

// evalSeed validates and evaluates Options.Seed for OSDPOSCtx: the split
// list is re-applied to the base graph and the result scheduled with one
// unbounded DPOS pass on the target cluster — a fresh placement, so a seed
// computed for a differently-sized cluster (elastic grow, fault-recovery
// shrink) needs no device remapping to stay feasible. A fingerprint
// mismatch is the caller's bug and errors out; a seed that no longer
// materializes returns nils, and one that no longer schedules (memory
// infeasible on the shrunken cluster) a nil schedule: the search runs cold.
// The graph is non-nil exactly when the DPOS pass ran.
func evalSeed(g *graph.Graph, cluster *device.Cluster, est cost.Estimator, opts Options) (*graph.Graph, *Schedule, error) {
	seed := opts.Seed
	if fp := strategy.Fingerprint(g); seed.Fingerprint != fp {
		return nil, nil, fmt.Errorf("seed strategy: %w: seed %s, graph %s",
			strategy.ErrFingerprint, seed.Fingerprint, fp)
	}
	sg, err := seed.Materialize(g)
	if err != nil {
		return nil, nil, nil
	}
	opts.Seed = nil
	sched, err := DPOS(sg, cluster, est, opts)
	if err != nil {
		return sg, nil, nil
	}
	return sg, sched, nil
}

// placedCriticalPath recomputes the critical path using the actual
// placement: w_i is the execution time on the op's assigned device, and
// edge costs are the transfer times between the assigned devices, all read
// from the dense lattice. It returns the path and a pooled Ranks whose W
// holds the per-op placed execution times; the caller releases it.
func placedCriticalPath(ctx *scheduleContext, lat *costLattice, sched *Schedule) ([]int, *Ranks) {
	n := ctx.nOps
	r := ranksFromPool(n, 0)
	exec, rank := r.W, r.Rank
	for id := 0; id < n; id++ {
		exec[id] = lat.execAt(id, sched.Placement[id])
	}
	for i := len(ctx.topo) - 1; i >= 0; i-- {
		id := ctx.topo[i]
		var best time.Duration
		for _, ei := range ctx.outIdx[id] {
			e := ctx.edgeAt(ei)
			comm := lat.commAt(ei, sched.Placement[e.From], sched.Placement[e.To])
			if v := comm + rank[e.To]; v > best {
				best = v
			}
		}
		rank[id] = exec[id] + best
	}
	return criticalPathCtx(ctx, r), r
}
