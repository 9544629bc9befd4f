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
)

// SyncGroup is the subgraph synchronizing one shared variable in a
// data-parallel graph: the Variable, the per-replica consumers reading its
// weights (forward and backward ops), the AddN aggregation, and the
// ApplyGradient update.
type SyncGroup struct {
	Variable  int
	Consumers []int // replica ops reading the weight tensor
	Grads     []int // gradient producers feeding the aggregation
	SubAggs   []int // intermediate AddN nodes of a hierarchical aggregation
	AddN      int
	Apply     int
	// ParamBytes is the parameter size being synchronized.
	ParamBytes int64
}

// ops returns all member op IDs (deduplicated: backward ops appear both as
// consumers and gradient producers).
func (s SyncGroup) ops() []int {
	seen := make(map[int]bool, 3+len(s.Consumers)+len(s.Grads))
	out := make([]int, 0, 3+len(s.Consumers)+len(s.Grads))
	add := func(id int) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	add(s.Variable)
	for _, id := range s.Consumers {
		add(id)
	}
	for _, id := range s.Grads {
		add(id)
	}
	for _, id := range s.SubAggs {
		add(id)
	}
	add(s.AddN)
	add(s.Apply)
	return out
}

// GradientSyncGroups discovers the gradient synchronization groups of a
// data-parallel training graph structurally: each Variable op anchors one
// group; its successors are the weight readers, and the AddN/Apply pair is
// found through the colocation constraints pointing back at the Variable.
func GradientSyncGroups(g *graph.Graph) []SyncGroup {
	// Variable ID -> pending group under construction.
	byVar := make(map[int]*SyncGroup)
	var order []int
	for _, op := range g.Ops() {
		if op.Kind != graph.KindVariable {
			continue
		}
		byVar[op.ID] = &SyncGroup{
			Variable:   op.ID,
			Consumers:  g.Successors(op.ID),
			AddN:       -1,
			Apply:      -1,
			ParamBytes: op.ParamBytes,
		}
		order = append(order, op.ID)
	}
	for _, op := range g.Ops() {
		if op.ColocateWith == "" {
			continue
		}
		v, ok := g.OpByName(op.ColocateWith)
		if !ok || v.Kind != graph.KindVariable {
			continue
		}
		grp, ok := byVar[v.ID]
		if !ok {
			continue
		}
		switch op.Kind {
		case graph.KindAddN:
			grp.AddN = op.ID
			grp.Grads, grp.SubAggs = collectGradients(g, op.ID)
		case graph.KindApplyGradient:
			grp.Apply = op.ID
		}
	}
	groups := make([]SyncGroup, 0, len(order))
	for _, id := range order {
		grp := byVar[id]
		if grp.AddN < 0 || grp.Apply < 0 {
			continue // not a full sync group (e.g. frozen variable)
		}
		groups = append(groups, *grp)
	}
	// Largest parameters first: they carry the heaviest sync traffic.
	sort.SliceStable(groups, func(a, b int) bool {
		return groups[a].ParamBytes > groups[b].ParamBytes
	})
	return groups
}

// ColocateSync is the gradient-sync colocation pass. The paper's analysis
// (Sec. 6.5, Fig. 4) shows FastT placing "replicas of operations with large
// parameters in one GPU rather than 4 GPUs, to avoid inter-GPU aggregation
// of gradients of these parameters"; the listing heuristic of Alg. 1 is
// myopic per-op EFT and cannot discover that pattern on its own, so this
// pass realizes the reported outcome explicitly (see DESIGN.md §2): walk
// sync groups in descending parameter size and pin a whole group (forward
// replicas, gradient producers, aggregation, updates) onto one device
// whenever the DPOS estimate of the full graph improves; stop at the first
// group that does not improve, mirroring Alg. 2's termination rule.
//
// It returns the accepted pins (possibly empty) and the schedule under
// them.
//
// Each group's candidate devices are probed concurrently (fanOut, at
// Workers > 1): every probe pins the whole group at one device and runs a
// bounded DPOS trial against the incumbent makespan, with the live shared
// bound letting one improving probe abort its siblings mid-run. The probe order is deterministic — the variable's current device
// first (the old single-probe heuristic and the preferred tiebreak), then
// the remaining devices ascending — and a first-minimum reduce over
// position-indexed results — reduceFirstMin, the same reduce the OS-DPOS
// rounds use — restores the sequential answer at any worker count.
// A group is accepted at the best strictly-improving device; the pass ends
// at the first group no device improves (pruned probes prove
// non-improvement without finishing), and moves on only past groups whose
// every probe is infeasible under the accumulated pins, finished if need be
// (allPrunedCompletes). All probes reuse one scheduling context and one
// rank computation (pins alter placement, never ranks, which depend only
// on the graph and the estimator), and each replays the incumbent's
// device choices up to its group's first op (incumbentPrefix).
func ColocateSync(g *graph.Graph, cluster *device.Cluster, est cost.Estimator,
	opts Options) (map[string]int, *Schedule, error) {
	return ColocateSyncCtx(context.Background(), g, cluster, est, opts)
}

// ColocateSyncCtx is ColocateSync under a context: cancelling ctx ends the
// pass at the next group or probe boundary and returns ctx.Err(). A nil ctx
// means context.Background().
func ColocateSyncCtx(ctx context.Context, g *graph.Graph, cluster *device.Cluster, est cost.Estimator,
	opts Options) (map[string]int, *Schedule, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	b, err := colocateSync(ctx, g, cluster, cost.ReadSnapshot(est), opts)
	if err != nil {
		return nil, nil, err
	}
	b.release()
	return b.pins, b.sched, nil
}

// colocateSync is ColocateSyncCtx on a snapshotted estimator. It returns
// the accepted pins and their schedule together with the context, lattice
// and ranks that schedule was computed from, so OS-DPOS can start from it.
func colocateSync(ctx context.Context, g *graph.Graph, cluster *device.Cluster, est cost.Estimator,
	opts Options) (*baseSchedule, error) {
	b, err := initialPass(g, cluster, est, opts)
	if err != nil {
		return nil, fmt.Errorf("colocate sync: %w", err)
	}
	groups := GradientSyncGroups(g)
	numDev := cluster.NumDevices()
	if len(groups) == 0 || numDev < 2 {
		return b, nil
	}
	sctx, lat, ranks := b.ctx, b.lat, b.ranks
	fail := func(err error) (*baseSchedule, error) {
		releaseSchedule(b.sched)
		b.release()
		return nil, err
	}
	workers := opts.WorkerCount()
	best := b.sched.Makespan
	pins := make(map[string]int)
	var passes atomic.Int64
	examined := 0
	for _, grp := range groups {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		if len(grp.Grads) < 2 {
			continue // single replica: nothing to co-locate
		}
		if alreadyColocated(grp, b.sched.Placement) {
			continue
		}
		if opts.MaxSyncGroups > 0 && examined >= opts.MaxSyncGroups {
			break
		}
		examined++

		members := grp.ops()
		names := make([]string, 0, len(members))
		replay := &incumbentPrefix{sched: b.sched, stop: make([]bool, sctx.nOps)}
		for _, id := range members {
			names = append(names, g.Op(id).Name)
			replay.stop[id] = true
		}
		// Probe order: the device the scheduler gave the variable first,
		// then the rest ascending. First-minimum over this order decides.
		order := make([]int, 0, numDev)
		order = append(order, b.sched.Placement[grp.Variable])
		for d := 0; d < numDev; d++ {
			if d != order[0] {
				order = append(order, d)
			}
		}
		trialPins := func(dev int) map[string]int {
			trial := make(map[string]int, len(pins)+len(names))
			for k, v := range pins {
				trial[k] = v
			}
			for _, nm := range names {
				trial[nm] = dev
			}
			return trial
		}
		bound := best
		var live *atomic.Int64
		if workers > 1 {
			live = new(atomic.Int64)
			live.Store(int64(best))
		}
		probe := func(i int, bnd time.Duration, lv *atomic.Int64) candOutcome {
			if ctx.Err() != nil {
				return candOutcome{} // cancelled: drop the probe
			}
			trialOpts := opts
			trialOpts.Pinned = mergePins(opts.Pinned, trialPins(order[i]))
			passes.Add(1)
			cand, err := dposCtx(sctx, cluster, lat, trialOpts, ranks, bnd, lv, replay)
			if err != nil {
				var pe *prunedError
				if errors.As(err, &pe) {
					return candOutcome{pruned: true, bound: pe.bound, completes: pe.completes}
				}
				return candOutcome{} // infeasible under pins
			}
			if lv != nil {
				publishIncumbent(lv, cand.Makespan)
			}
			return candOutcome{makespan: cand.Makespan, sched: cand, ok: true}
		}
		results := make([]candOutcome, len(order))
		fanOut(workers, len(order), func(i int) { results[i] = probe(i, bound, live) })
		if err := ctx.Err(); err != nil {
			releaseOutcomes(results)
			return fail(err)
		}

		bestIdx, bestFT := reduceFirstMin(results, live != nil, func(i int, bnd time.Duration) candOutcome {
			return probe(i, bnd, nil)
		})
		if bestIdx < 0 {
			if allPrunedCompletes(results, func(i int) candOutcome { return probe(i, 0, nil) }) < 0 {
				continue // all infeasible under pins: try the next group
			}
			break // some probe completes, necessarily non-improving
		}
		if bestFT >= best {
			// A bounded completion beats the bound by construction, so
			// only a zero incumbent (a zero bound does not prune) gets
			// here: the first non-improving group ends the pass.
			releaseOutcomes(results)
			break
		}
		wsched := results[bestIdx].sched
		results[bestIdx].sched = nil
		releaseOutcomes(results)
		best = wsched.Makespan
		pins = trialPins(order[bestIdx])
		releaseSchedule(b.sched)
		b.sched = wsched
	}
	b.pins = pins
	b.passes += int(passes.Load())
	return b, nil
}

// collectGradients walks the aggregation tree rooted at the final AddN and
// returns the true gradient producers (leaves) plus any intermediate AddN
// nodes of a hierarchical aggregation.
func collectGradients(g *graph.Graph, root int) (grads, subAggs []int) {
	for _, p := range g.Predecessors(root) {
		if g.Op(p).Kind == graph.KindAddN {
			subAggs = append(subAggs, p)
			gs, sa := collectGradients(g, p)
			grads = append(grads, gs...)
			subAggs = append(subAggs, sa...)
			continue
		}
		grads = append(grads, p)
	}
	return grads, subAggs
}

func alreadyColocated(grp SyncGroup, placement []int) bool {
	dev := placement[grp.AddN]
	for _, id := range grp.ops() {
		if placement[id] != dev {
			return false
		}
	}
	return true
}

// mergePins overlays b on a without mutating either.
func mergePins(a, b map[string]int) map[string]int {
	if len(a) == 0 {
		return b
	}
	out := make(map[string]int, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}
