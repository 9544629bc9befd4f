package core

import (
	"sort"
	"time"

	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
)

// This file holds the reference semantics the production search is tested
// against: a direct-estimator lattice and the literal sequential walks of
// Alg. 2 (OS-DPOS) and the gradient-sync colocation pass, with every
// candidate evaluated from scratch and to completion. None of the
// production accelerations — copy-on-write overlays, O(Δ) lattice
// extension, comm-class dedup, delta ranks, bound-based pruning, the live
// shared bound, the adopted winner schedule — appear here.

// buildDirectLattice resolves a lattice with no comm-class sharing: one
// class per edge, each grid an independent direct estimator resolution.
// Like buildLattice it accepts overlay contexts and leaves a tombstoned
// op's row zero.
func buildDirectLattice(ctx *scheduleContext, devs []*device.Device, est cost.Estimator) *costLattice {
	nd := len(devs)
	nOps := ctx.nOps
	nEdges := ctx.numEdges()
	l := &costLattice{
		nDevs:       nd,
		baseOps:     nOps,
		baseEdges:   nEdges,
		baseClasses: nEdges,
		exec:        make([]time.Duration, nOps*nd),
		maxW:        make([]time.Duration, nOps),
		minW:        make([]time.Duration, nOps),
		classOf:     make([]int32, nEdges),
		comm:        make([]time.Duration, nEdges*nd*nd),
		maxComm:     make([]time.Duration, nEdges),
	}
	for id := 0; id < nOps; id++ {
		if id == ctx.dead {
			continue
		}
		l.maxW[id], l.minW[id] = fillExecStats(l.exec[id*nd:(id+1)*nd], est, ctx.op(id), devs)
	}
	for ei := 0; ei < nEdges; ei++ {
		grid := l.comm[ei*nd*nd : (ei+1)*nd*nd]
		cost.FillCommGrid(grid, est, ctx.edgeAt(ei).Bytes, devs)
		l.classOf[ei] = int32(ei)
		l.maxComm[ei] = gridMax(grid)
	}
	return l
}

// latticeBuilder resolves a fresh lattice for a context: buildDirectLattice
// for the reference, or the production buildLattice with comm-class dedup.
type latticeBuilder func(ctx *scheduleContext, devs []*device.Device, est cost.Estimator) *costLattice

// dposFromScratch schedules g with one unbounded DPOS pass over a fresh
// context and a lattice resolved by build.
func dposFromScratch(g *graph.Graph, cluster *device.Cluster, est cost.Estimator, opts Options,
	build latticeBuilder) (*Schedule, error) {
	ctx, err := newScheduleContext(g)
	if err != nil {
		return nil, err
	}
	lat := build(ctx, cluster.Devices(), est)
	ranks := computeRanksCtx(ctx, lat)
	defer releaseRanks(ranks)
	return dposCtx(ctx, cluster, lat, opts, ranks, 0, nil, nil)
}

// evalClone evaluates one split candidate the reference way: a full
// SplitOperation clone scheduled by dposFromScratch on a lattice resolved
// by build. The split error, if any, comes first; the schedule error second.
func evalClone(g *graph.Graph, opID int, dim graph.SplitDim, n int,
	cluster *device.Cluster, est cost.Estimator, opts Options, build latticeBuilder) (*graph.Graph, *Schedule, error) {
	cand, err := graph.SplitOperation(g, opID, dim, n)
	if err != nil {
		return nil, nil, err
	}
	s, err := dposFromScratch(cand, cluster, est, opts, build)
	return cand, s, err
}

// osdposOracle is the literal sequential Alg. 2. It shares the initial
// DPOS, the placed critical path and the candidate plan with OSDPOS, then
// walks the plan one operation at a time: every candidate is a clone
// scheduled to completion (evalClone), the first strict minimum wins, an
// operation whose candidates are all infeasible is skipped, and the first
// operation whose best candidate does not improve the makespan ends the
// walk. Evaluated counts completed candidates; Pruned is always 0.
// opts.Seed is not supported.
func osdposOracle(g *graph.Graph, cluster *device.Cluster, est cost.Estimator, opts Options) (*SplitResult, error) {
	return osdposOracleOn(g, cluster, est, opts, buildDirectLattice)
}

// osdposOracleOn is osdposOracle with every candidate clone scheduled on a
// lattice resolved by build, so the walk can be run on the production
// comm-class lattice as well as on the direct one.
func osdposOracleOn(g *graph.Graph, cluster *device.Cluster, est cost.Estimator, opts Options,
	build latticeBuilder) (*SplitResult, error) {
	baseCtx, err := newScheduleContext(g)
	if err != nil {
		return nil, err
	}
	baseLat := buildLattice(baseCtx, cluster.Devices(), est)
	baseRanks := computeRanksCtx(baseCtx, baseLat)
	sched, err := dposCtx(baseCtx, cluster, baseLat, opts, baseRanks, 0, nil, nil)
	releaseRanks(baseRanks)
	if err != nil {
		return nil, err
	}
	cp, placedRanks := placedCriticalPath(baseCtx, baseLat, sched)
	exec := placedRanks.W
	sort.SliceStable(cp, func(a, b int) bool { return exec[cp[a]] > exec[cp[b]] })
	releaseRanks(placedRanks)

	res := &SplitResult{Graph: g, Schedule: sched}
	for _, round := range buildPlan(g, cp, cluster.NumDevices(), opts.MaxSplitOps) {
		op, ok := res.Graph.OpByName(round.opName)
		if !ok {
			continue
		}
		var bestG *graph.Graph
		var bestS *Schedule
		var bestC splitCand
		for _, c := range round.cands {
			cg, s, err := evalClone(res.Graph, op.ID, c.dim, c.n, cluster, est, opts, build)
			if err != nil {
				continue // not splittable that way, or memory infeasible
			}
			res.Evaluated++
			if bestS == nil || s.Makespan < bestS.Makespan {
				bestG, bestS, bestC = cg, s, c
			}
		}
		if bestS == nil {
			continue // every candidate infeasible: try the next CP op
		}
		if bestS.Makespan >= res.Schedule.Makespan {
			break // first non-improving operation ends the walk
		}
		res.Graph, res.Schedule = bestG, bestS
		res.Splits = append(res.Splits, graph.SplitDecision{OpName: round.opName, Dim: bestC.dim, N: bestC.n})
	}
	return res, nil
}

// colocateSyncOracle is the literal sequential gradient-sync colocation
// pass: groups in GradientSyncGroups order, each probe an unbounded DPOS
// run with the whole group pinned to one device (the variable's current
// device first, then the rest ascending), the first strict minimum wins,
// a group whose probes are all infeasible is skipped, and the first group
// no device improves ends the pass.
func colocateSyncOracle(g *graph.Graph, cluster *device.Cluster, est cost.Estimator,
	opts Options) (map[string]int, *Schedule, error) {
	sched, err := DPOS(g, cluster, est, opts)
	if err != nil {
		return nil, nil, err
	}
	pins := make(map[string]int)
	numDev := cluster.NumDevices()
	if numDev < 2 {
		return pins, sched, nil
	}
	examined := 0
	for _, grp := range GradientSyncGroups(g) {
		if len(grp.Grads) < 2 || alreadyColocated(grp, sched.Placement) {
			continue
		}
		if opts.MaxSyncGroups > 0 && examined >= opts.MaxSyncGroups {
			break
		}
		examined++
		order := []int{sched.Placement[grp.Variable]}
		for d := 0; d < numDev; d++ {
			if d != order[0] {
				order = append(order, d)
			}
		}
		var bestPins map[string]int
		var bestS *Schedule
		for _, dev := range order {
			trial := make(map[string]int, len(pins))
			for k, v := range pins {
				trial[k] = v
			}
			for _, id := range grp.ops() {
				trial[g.Op(id).Name] = dev
			}
			trialOpts := opts
			trialOpts.Pinned = mergePins(opts.Pinned, trial)
			s, err := DPOS(g, cluster, est, trialOpts)
			if err != nil {
				continue // infeasible under these pins
			}
			if bestS == nil || s.Makespan < bestS.Makespan {
				bestPins, bestS = trial, s
			}
		}
		if bestS == nil {
			continue // every probe infeasible: try the next group
		}
		if bestS.Makespan >= sched.Makespan {
			break // first non-improving group ends the pass
		}
		pins, sched = bestPins, bestS
	}
	return pins, sched, nil
}
