package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/strategy"
)

// ErrNoFeasiblePlacement is returned when some operation fits on no device
// (every device would exceed its memory capacity).
var ErrNoFeasiblePlacement = errors.New("no device can hold operation")

// errPruned reports that a candidate evaluation was aborted because a valid
// lower bound on its final makespan reached the caller's bound: the
// candidate cannot strictly beat the incumbent, so finishing the schedule
// would be wasted work. Internal to the OS-DPOS candidate search.
var errPruned = errors.New("candidate pruned by makespan bound")

// prunedError carries the bound that was in effect at the abort (the live
// shared incumbent may have tightened it below the caller's static bound).
// A pruned candidate's true makespan is >= that bound, which is exactly the
// fact the deterministic tie-resolution pass in OS-DPOS needs. It matches
// errPruned under errors.Is.
//
// completes records a proof that the same pass run without a bound would
// have finished: at the abort some device still had room for every op left
// in the queue. A pass fails only when an op fits on no device, and such a
// device keeps room for whatever remains however the rest is placed, so
// the unbounded rerun need not be paid to learn it.
type prunedError struct {
	bound     time.Duration
	completes bool
}

func (e *prunedError) Error() string { return errPruned.Error() }

func (e *prunedError) Is(target error) bool { return target == errPruned }

// Options tunes DPOS and OS-DPOS.
type Options struct {
	// Memory converts op footprints into resident bytes for capacity
	// checks. Zero value falls back to graph.DefaultMemoryModel.
	Memory graph.MemoryModel
	// MaxSplitOps bounds how many critical-path operations OS-DPOS
	// considers for splitting; 0 means unlimited (the paper's behaviour:
	// stop only at the first non-improving op).
	MaxSplitOps int
	// Pinned forces named operations onto specific devices (used by the
	// gradient-sync colocation pass). Pins are soft: when the target
	// device lacks memory the op falls back to normal selection. Keyed by
	// name so pins survive graph rewrites.
	Pinned map[string]int
	// MaxSyncGroups bounds how many gradient-sync groups the colocation
	// pass examines; 0 means unlimited.
	MaxSyncGroups int
	// Workers bounds the goroutines evaluating OS-DPOS split candidates
	// and ColocateSync probes concurrently. 0 (the default) uses
	// runtime.GOMAXPROCS(0) (see WorkerCount); 1 forces the sequential
	// path. Any value yields byte-identical strategies: candidates are
	// reduced in deterministic (makespan, dim, n) order regardless of
	// evaluation order, and the live shared pruning bound of the
	// concurrent path resolves ties back to the sequential first-minimum
	// winner.
	Workers int
	// DisableInsertion turns off idle-slot insertion (ablation): operations
	// are appended after the device's last scheduled interval instead of
	// filling earlier gaps.
	DisableInsertion bool
	// DisableCPDevice turns off dedicated critical-path device selection
	// (ablation): critical-path operations use plain min-EFT like all
	// others.
	DisableCPDevice bool
	// Seed warm-starts OS-DPOS from a prior strategy artifact for the same
	// base graph: the seed is re-materialized, evaluated once with DPOS on
	// the target cluster for an exact feasible makespan, and that value
	// tightens the initial incumbent bound of every round (pruning is
	// exact, so candidates that cannot beat the seed abort early). The
	// result is never worse than the seed's re-evaluated makespan, and is
	// byte-identical to the cold search whenever any candidate beats the
	// seed; otherwise the re-materialized seed itself is returned
	// (SplitResult.SeedWon). A seed whose Fingerprint does not match the
	// graph is an error (strategy.ErrFingerprint); a seed that fails to
	// materialize or schedule on the target cluster is ignored and the
	// search runs cold. Elastic Grow, fault recovery, `fastt compute
	// -seed-strategy` and explicit serve client seeds all thread the
	// strategy they already hold through this field.
	Seed *strategy.Artifact
	// ComputeBound annotates the finished strategy with the reference
	// lower bound on the ideal-system optimum of its materialized graph
	// (Strategy.LowerBound/GapPct via optimal.Bound). Reporting-only and
	// opt-in: the bound never influences the search, and on catalog-size
	// graphs it adds one relaxation-DP pass over the final graph.
	ComputeBound bool
}

func (o Options) memory() graph.MemoryModel {
	if o.Memory == (graph.MemoryModel{}) {
		return graph.DefaultMemoryModel()
	}
	return o.Memory
}

// WorkerCount resolves Workers to the number of goroutines one search fans
// its candidates out on: Workers when positive, else GOMAXPROCS. Callers
// sizing their own concurrency around searches (the strategy service's
// admission limit) use it so both sides read the same number.
func (o Options) WorkerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Schedule is the output of DPOS: device placement, execution order, and
// the predicted timing of every operation.
type Schedule struct {
	// Placement maps op ID -> device ID (S_new of Alg. 1).
	Placement []int
	// Order lists op IDs in ascending scheduled start time (A of Alg. 1).
	Order []int
	// Priorities maps op ID -> its index in Order, ready to hand to the
	// simulator's priority queue discipline (FastT's order enforcement).
	Priorities []int
	// Start and Finish are the predicted ST/FT per op.
	Start, Finish []time.Duration
	// Makespan is the predicted finish time of the last exit operation
	// (FT(o_exit)).
	Makespan time.Duration
	// CriticalPath is the rank-derived critical path used for device
	// selection.
	CriticalPath []int
}

// interval is one scheduled occupation of a device's compute stream.
type interval struct {
	start, end time.Duration
	op         int
}

// deviceState tracks one device during list scheduling.
type deviceState struct {
	intervals []interval // sorted by (start, end)
	memFree   int64
	lastEnd   time.Duration // max interval end, the append-only frontier
}

// insertionSlot finds the earliest start >= ready on the device that fits
// an op of duration dur, allowing insertion into idle gaps between
// already-scheduled intervals (the paper's avail[j] semantics). With
// appendOnly it degrades to scheduling after the last interval (ablation).
//
// Intervals are kept sorted by (start, end); committed intervals never
// properly overlap, so their end times are monotone too (a zero-duration
// interval sharing its start with a longer one sorts first). That makes
// the list its own gap index: every interval ending at or before `ready`
// is irrelevant, and a binary search jumps straight past them instead of
// linearly rescanning the whole prefix on every EFT probe.
func (d *deviceState) insertionSlot(ready, dur time.Duration, appendOnly bool) time.Duration {
	cand := ready
	if appendOnly {
		if d.lastEnd > cand {
			cand = d.lastEnd
		}
		return cand
	}
	if cand >= d.lastEnd {
		// Every interval ends at or before lastEnd, so nothing constrains
		// a start at cand; skip the scan.
		return cand
	}
	ivs := d.intervals
	// First interval that can still constrain cand: ends strictly after it.
	lo, hi := 0, len(ivs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ivs[mid].end > cand {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	for _, iv := range ivs[lo:] {
		if cand+dur <= iv.start {
			return cand
		}
		if iv.end > cand {
			cand = iv.end
		}
	}
	return cand
}

// commit inserts the interval, keeping the list sorted by (start, end) —
// the lexicographic order insertionSlot's binary search relies on.
func (d *deviceState) commit(iv interval) {
	// Append-at-end fast path: an interval starting at or past the current
	// frontier sorts after every existing interval (each starts no later
	// than its own end <= lastEnd), so the binary search and memmove can be
	// skipped. This is the common case — list scheduling mostly extends
	// device frontiers.
	if len(d.intervals) == 0 || iv.start >= d.lastEnd {
		d.intervals = append(d.intervals, iv)
		if iv.end > d.lastEnd {
			d.lastEnd = iv.end
		}
		return
	}
	i := sort.Search(len(d.intervals), func(i int) bool {
		if d.intervals[i].start != iv.start {
			return d.intervals[i].start > iv.start
		}
		return d.intervals[i].end >= iv.end
	})
	d.intervals = append(d.intervals, interval{})
	copy(d.intervals[i+1:], d.intervals[i:])
	d.intervals[i] = iv
	if iv.end > d.lastEnd {
		d.lastEnd = iv.end
	}
}

// DPOS implements Alg. 1 (Device Placement and Operation Sequencing):
// list scheduling with critical-path-aware device selection and
// insertion-based earliest-finish-time placement for off-path operations.
func DPOS(g *graph.Graph, cluster *device.Cluster, est cost.Estimator, opts Options) (*Schedule, error) {
	est = cost.ReadSnapshot(est)
	ctx, err := contextFor(g)
	if err != nil {
		return nil, fmt.Errorf("compute ranks: %w", err)
	}
	lat := latticeFor(ctx, cluster, est)
	ranks := computeRanksCtx(ctx, lat)
	defer releaseRanks(ranks)
	return dposCtx(ctx, cluster, lat, opts, ranks, 0, nil, nil)
}

// dposFresh schedules a throwaway graph (a re-materialized seed): the
// context and lattice are derived locally and never enter the global
// caches, exactly like the graph itself.
func dposFresh(g *graph.Graph, cluster *device.Cluster, est cost.Estimator,
	opts Options) (*Schedule, error) {
	ctx, err := newScheduleContext(g)
	if err != nil {
		return nil, err
	}
	lat := buildLattice(ctx, cluster.Devices(), est)
	ranks := computeRanksCtx(ctx, lat)
	defer releaseRanks(ranks)
	return dposCtx(ctx, cluster, lat, opts, ranks, 0, nil, nil)
}

// dposCtx is the core list scheduler. Every cost it consumes comes
// pre-resolved from the dense lattice; the estimator interface is never
// crossed in here. All per-run working state comes from the scratch pool;
// the returned Schedule comes from the schedule pool and belongs to the
// caller.
//
// A positive bound makes the run a candidate evaluation against an
// incumbent makespan: the moment an op is placed whose finish time plus
// ranks.RestMin (a lower bound on the remaining time to the exit's finish
// under any schedule) reaches the bound, the run aborts with a prunedError
// — the final makespan could only have been >= bound, so the candidate can
// never strictly improve on the incumbent. Zero disables pruning.
//
// live, when non-nil, is the shared incumbent of a concurrent candidate
// round: it holds the smallest makespan any worker has completed so far
// (never above the static bound), and each placement checks against its
// current value, so one worker's finished candidate aborts the others
// mid-run. The prunedError records the live value that triggered the
// abort.
//
// replay, when non-nil, takes min-EFT decisions from an incumbent schedule
// of the same graph, context and ranks until the queue reaches an op
// replay.stop marks (see incumbentPrefix).
func dposCtx(ctx *scheduleContext, cluster *device.Cluster, lat *costLattice,
	opts Options, ranks *Ranks, bound time.Duration, live *atomic.Int64,
	replay *incumbentPrefix) (*Schedule, error) {
	n := ctx.nOps
	mm := opts.memory()
	devs := cluster.Devices()
	nd := len(devs)

	scratch := scratchPool.Get().(*dposScratch)
	runEpoch := scratch.reset(n, nd)
	defer scratchPool.Put(scratch)

	cp := criticalPathCtx(ctx, ranks)
	onCP := scratch.onCP
	if !opts.DisableCPDevice {
		for _, id := range cp {
			onCP[id] = true
		}
	}

	states := scratch.states
	for i, d := range devs {
		states[i].memFree = d.MemoryBytes
	}

	// Priority queue: live ops in decreasing rank_u order (ancestors
	// first, since rank strictly decreases along edges), shared with every
	// other pass under the same ranks.
	queue := ranks.queue

	sched := scheduleFromPool(n)
	sched.CriticalPath = cp
	for i := range sched.Placement {
		sched.Placement[i] = -1
	}
	if dead := ctx.dead; dead >= 0 {
		// The tombstoned op is never scheduled; clear its pooled slots so
		// stale values cannot leak into order sorting or makespan scans.
		sched.Start[dead], sched.Finish[dead] = 0, 0
	}

	// Critical-path device selection (Sec. 5.1): pick the device that can
	// hold the most remaining CP ops with the smallest average execution
	// time. cpCursor tracks how far down the path ops have been assigned;
	// when the current CP device fills up, re-select for the remainder.
	cpDevice := -1
	cpCursor := 0
	selectCPDevice := func() int {
		bestDev, bestAvg := -1, math.MaxFloat64
		for di := range devs {
			free := states[di].memFree
			var total time.Duration
			count := 0
			for _, id := range cp[cpCursor:] {
				need := mm.OpBytes(ctx.op(id))
				if need > free {
					break
				}
				free -= need
				total += lat.execAt(id, di)
				count++
			}
			if count == 0 {
				continue
			}
			avg := float64(total) / float64(count)
			if avg < bestAvg {
				bestAvg = avg
				bestDev = di
			}
		}
		return bestDev
	}

	placed := scratch.placed

	// Channel booking: the schedule estimate accounts for transfer
	// serialization on each ordered device pair (one copy engine per pair,
	// matching the executor), and dedupes transfers per (producer,
	// destination device) — a tensor consumed by several ops on one device
	// is sent once. Without this, the estimate hides exactly the
	// congestion that gradient-sync colocation removes, and the strategy
	// calculator cannot see colocation's benefit.
	//
	// The books are the scratch's epoch-stamped flat arrays: committed
	// state is validated against runEpoch, probe overlays against a fresh
	// epoch per probed op, so a probe costs zero setup instead of clearing
	// maps.
	chanAvail := scratch.chanAvail
	copyDone, copyEpoch := scratch.copyDone, scratch.copyEpoch
	probeChan, probeCEp := scratch.probeChan, scratch.probeCEp
	probeCopy, probeDEp := scratch.probeCopy, scratch.probeDEp

	// arrival returns when the tensor of edge ei, produced by src on
	// device from, is present on dev. When commit is true the implied
	// transfer is booked on its channel, otherwise it lands in the probe
	// overlay of epoch pe. Every overlay key names dev, so probes of
	// several devices can share one epoch.
	arrival := func(ei, src, from, dev int, commit bool, pe uint64) time.Duration {
		if from == dev {
			return sched.Finish[src]
		}
		ck := src*nd + dev
		if copyEpoch[ck] == runEpoch {
			return copyDone[ck]
		}
		if !commit && probeDEp[ck] == pe {
			return probeCopy[ck]
		}
		pair := from*nd + dev
		start := sched.Finish[src]
		if !commit && probeCEp[pair] == pe {
			if avail := probeChan[pair]; avail > start {
				start = avail
			}
		} else if avail := chanAvail[pair]; avail > start {
			start = avail
		}
		arr := start + lat.commAt(ei, from, dev)
		if commit {
			chanAvail[pair] = arr
			copyDone[ck] = arr
			copyEpoch[ck] = runEpoch
		} else {
			probeChan[pair] = arr
			probeCEp[pair] = pe
			probeCopy[ck] = arr
			probeDEp[ck] = pe
		}
		return arr
	}

	aborted := false
	var abortBound time.Duration
	place := func(op *graph.Op, dev int) {
		dur := lat.execAt(op.ID, dev)
		var ready time.Duration
		for _, ei := range ctx.inIdx[op.ID] {
			src := ctx.edgeAt(ei).From
			if !placed[src] {
				continue // unplaced preds cannot happen in queue order, but be safe
			}
			ready = max(ready, arrival(ei, src, sched.Placement[src], dev, true, 0))
		}
		st := states[dev].insertionSlot(ready, dur, opts.DisableInsertion)
		states[dev].commit(interval{start: st, end: st + dur, op: op.ID})
		states[dev].memFree -= mm.OpBytes(op)
		sched.Placement[op.ID] = dev
		sched.Start[op.ID] = st
		sched.Finish[op.ID] = st + dur
		placed[op.ID] = true
		// Candidate pruning: the exit op finishes no earlier than this op's
		// finish plus the minimal remaining work along some path to it. The
		// bound is checked on commit only, so every completed run is exact.
		b := bound
		if live != nil {
			if lv := time.Duration(live.Load()); b == 0 || lv < b {
				b = lv
			}
		}
		if b > 0 && st+dur+ranks.RestMin[op.ID] >= b {
			aborted = true
			abortBound = b
		}
	}

	// bestEFT returns the device minimizing the op's EFT among devices
	// with sufficient memory; EFT is +inf (skipped) otherwise. One walk of
	// the op's in-edges probes every device under one epoch.
	probeReady := scratch.probeReady
	bestEFT := func(op *graph.Op) (int, error) {
		need := mm.OpBytes(op)
		clear(probeReady)
		pe := scratch.nextEpoch()
		for _, ei := range ctx.inIdx[op.ID] {
			src := ctx.edgeAt(ei).From
			if !placed[src] {
				continue
			}
			from := sched.Placement[src]
			for di := range devs {
				if states[di].memFree >= need {
					probeReady[di] = max(probeReady[di], arrival(ei, src, from, di, false, pe))
				}
			}
		}
		bestDev := -1
		var bestFinish time.Duration
		for di := range devs {
			if states[di].memFree < need {
				continue // EFT = +inf (Alg. 1 line 14)
			}
			dur := lat.execAt(op.ID, di)
			st := states[di].insertionSlot(probeReady[di], dur, opts.DisableInsertion)
			if ft := st + dur; bestDev == -1 || ft < bestFinish {
				bestDev = di
				bestFinish = ft
			}
		}
		if bestDev == -1 {
			return 0, fmt.Errorf("%w: %q needs %d bytes", ErrNoFeasiblePlacement, op.Name, need)
		}
		return bestDev, nil
	}

	// prune ends an aborted pass at queue position p, with the proof of
	// prunedError.completes: a device whose free memory covers the summed
	// footprint of queue[p:]. Negative footprints count as zero, so the
	// device keeps that cover after every later placement.
	prune := func(p int) error {
		var rest int64
		for _, id := range queue[p:] {
			rest += max(mm.OpBytes(ctx.op(id)), 0)
		}
		completes := false
		for i := range states {
			if states[i].memFree >= rest {
				completes = true
				break
			}
		}
		releaseSchedule(sched)
		return &prunedError{bound: abortBound, completes: completes}
	}

	replaying := replay != nil
	for p, id := range queue {
		if aborted {
			return nil, prune(p)
		}
		if replaying && replay.stop[id] {
			replaying = false
		}
		op := ctx.op(id)

		// Honor colocation constraints first (device placer contract).
		if op.ColocateWith != "" {
			if target, ok := ctx.opByName(op.ColocateWith); ok && placed[target.ID] {
				place(op, sched.Placement[target.ID])
				continue
			}
		}

		// Honor soft pins (gradient-sync colocation) when memory allows.
		if dev, ok := opts.Pinned[op.Name]; ok && dev >= 0 && dev < len(devs) {
			if states[dev].memFree >= mm.OpBytes(op) {
				place(op, dev)
				if onCP[id] {
					advanceCursor(cp, &cpCursor, id)
				}
				continue
			}
		}

		if onCP[id] {
			need := mm.OpBytes(op)
			if cpDevice < 0 || states[cpDevice].memFree < need {
				cpDevice = selectCPDevice()
			}
			if cpDevice >= 0 && states[cpDevice].memFree >= need {
				place(op, cpDevice)
				advanceCursor(cp, &cpCursor, id)
				continue
			}
			// No CP device can take it: fall through to min-EFT.
			advanceCursor(cp, &cpCursor, id)
		}

		if replaying {
			place(op, replay.sched.Placement[id])
			continue
		}
		dev, err := bestEFT(op)
		if err != nil {
			releaseSchedule(sched)
			return nil, err
		}
		place(op, dev)
	}
	if aborted {
		return nil, prune(len(queue))
	}

	// Execution list A: ops by ascending ST (Alg. 1 line 23), ties in
	// queue order. A tombstoned op goes last; it never reaches a caller.
	order := sched.Order
	copy(order, queue)
	if ctx.dead >= 0 {
		order[len(queue)] = ctx.dead
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(sched.Start[a], sched.Start[b])
	})
	for i, id := range order {
		sched.Priorities[id] = i
	}
	for id := 0; id < n; id++ {
		if id == ctx.dead {
			continue // a tombstoned op has no edges but is not an exit
		}
		if len(ctx.outIdx[id]) == 0 && sched.Finish[id] > sched.Makespan {
			sched.Makespan = sched.Finish[id]
		}
	}
	return sched, nil
}

// incumbentPrefix is the part of an incumbent schedule a ColocateSync probe
// can replay. A probe changes only the pins of one sync group's ops, and it
// shares the incumbent's graph, context, lattice and ranks, hence its rank
// queue. Until the queue reaches the first op of that group, the probe's
// pins, device state, channel books and critical-path cursor equal the
// incumbent's at the same position, so min-EFT would choose the device the
// incumbent chose: the probe takes it from sched instead of probing every
// device. Colocation, pins, critical-path selection and the bound check
// still run as usual.
type incumbentPrefix struct {
	sched *Schedule
	stop  []bool // op ID -> member of the probed group
}

// advanceCursor moves the CP cursor past id if id is the next CP entry, so
// CP device re-selection only considers genuinely remaining path ops.
func advanceCursor(cp []int, cursor *int, id int) {
	for *cursor < len(cp) && cp[*cursor] != id {
		*cursor++
	}
	if *cursor < len(cp) {
		*cursor++
	}
}
