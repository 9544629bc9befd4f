package core

import (
	"sync"
	"time"

	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
)

// costLattice is the dense, fully resolved numeric view of one
// (scheduleContext, cluster, estimator) triple: every cost the scheduling
// inner loops need, laid out flat so rank computation, CP device selection,
// EFT probing and channel booking never cross the cost.Estimator interface
// per probe.
//
//   - exec[id*nDevs+d] is op id's execution time on device d; maxW/minW are
//     its per-op row extrema (the w_i and RestMin terms of the ranks).
//   - Edges are deduplicated into *comm classes* by tensor size —
//     transfer time is a pure function of (bytes, from, to) — so the
//     per-class grids comm[class*nDevs²+from*nDevs+to] and per-class maxima
//     maxComm[class] are resolved once per distinct size, not per edge.
//     classOf maps a global edge index to its class.
//
// A lattice is immutable after construction and safe for any number of
// concurrent readers. An overlay candidate extends its base lattice in
// O(Δ): the base arrays are shared (copied slice headers), and only the
// delta ops' exec rows and the delta edges' classes are resolved fresh into
// the ext* arrays (op IDs >= baseOps, edge indexes >= baseEdges, classes >=
// baseClasses).
//
// The tests compare it byte for byte with a direct-estimator reference
// (buildDirectLattice in oracle_test.go: one class per edge, no caching).
type costLattice struct {
	nDevs       int
	baseOps     int
	baseEdges   int
	baseClasses int

	exec    []time.Duration // baseOps × nDevs
	maxW    []time.Duration // baseOps
	minW    []time.Duration // baseOps
	classOf []int32         // baseEdges
	comm    []time.Duration // baseClasses × nDevs × nDevs
	maxComm []time.Duration // baseClasses

	// classes maps tensor bytes -> class index; frozen after the base
	// build, so extensions may read it without locking.
	classes map[int64]int32

	// Overlay extension (empty on base lattices).
	extExec    []time.Duration
	extMaxW    []time.Duration
	extMinW    []time.Duration
	extClassOf []int32
	extComm    []time.Duration
	extMaxComm []time.Duration
	extBytes   []int64 // bytes of each ext class, linear-scanned (few entries)
}

// execAt returns op id's execution time on device dev.
func (l *costLattice) execAt(id, dev int) time.Duration {
	if id < l.baseOps {
		return l.exec[id*l.nDevs+dev]
	}
	return l.extExec[(id-l.baseOps)*l.nDevs+dev]
}

// wAt and minWAt return the per-op execution-time extrema over all devices.
func (l *costLattice) wAt(id int) time.Duration {
	if id < l.baseOps {
		return l.maxW[id]
	}
	return l.extMaxW[id-l.baseOps]
}

func (l *costLattice) minWAt(id int) time.Duration {
	if id < l.baseOps {
		return l.minW[id]
	}
	return l.extMinW[id-l.baseOps]
}

// classAt resolves a global edge index to its comm class.
func (l *costLattice) classAt(ei int) int {
	if ei < l.baseEdges {
		return int(l.classOf[ei])
	}
	return int(l.extClassOf[ei-l.baseEdges])
}

// commAt returns the transfer time of edge ei between two devices.
func (l *costLattice) commAt(ei, from, to int) time.Duration {
	c := l.classAt(ei)
	cell := from*l.nDevs + to
	if c < l.baseClasses {
		return l.comm[c*l.nDevs*l.nDevs+cell]
	}
	return l.extComm[(c-l.baseClasses)*l.nDevs*l.nDevs+cell]
}

// maxCommAt returns the maximal transfer time of edge ei over all ordered
// device pairs (the c_{i,j} of the rank computation).
func (l *costLattice) maxCommAt(ei int) time.Duration {
	c := l.classAt(ei)
	if c < l.baseClasses {
		return l.maxComm[c]
	}
	return l.extMaxComm[c-l.baseClasses]
}

// fillExecStats resolves one op row and its extrema.
func fillExecStats(row []time.Duration, est cost.Estimator, op *graph.Op,
	devs []*device.Device) (maxW, minW time.Duration) {
	cost.FillExecRow(row, est, op, devs)
	for d, t := range row {
		if t > maxW {
			maxW = t
		}
		if d == 0 || t < minW {
			minW = t
		}
	}
	return maxW, minW
}

// gridMax returns the maximal entry of one comm grid.
func gridMax(grid []time.Duration) time.Duration {
	var m time.Duration
	for _, t := range grid {
		if t > m {
			m = t
		}
	}
	return m
}

// buildLattice resolves the full lattice for a context, sharing one comm
// grid per distinct tensor size (see costLattice). It accepts both graph
// and overlay contexts; a tombstoned op keeps a zero row, which is never
// read because the dead op is never scheduled or ranked.
func buildLattice(ctx *scheduleContext, devs []*device.Device,
	est cost.Estimator) *costLattice {
	nd := len(devs)
	nOps := ctx.nOps
	nEdges := ctx.numEdges()
	l := &costLattice{
		nDevs:     nd,
		baseOps:   nOps,
		baseEdges: nEdges,
		exec:      make([]time.Duration, nOps*nd),
		maxW:      make([]time.Duration, nOps),
		minW:      make([]time.Duration, nOps),
		classOf:   make([]int32, nEdges),
	}
	for id := 0; id < nOps; id++ {
		if id == ctx.dead {
			continue
		}
		l.maxW[id], l.minW[id] = fillExecStats(
			l.exec[id*nd:(id+1)*nd], est, ctx.op(id), devs)
	}
	l.classes = make(map[int64]int32)
	for ei := 0; ei < nEdges; ei++ {
		b := ctx.edgeAt(ei).Bytes
		c, ok := l.classes[b]
		if !ok {
			c = int32(len(l.maxComm))
			l.classes[b] = c
			l.comm = append(l.comm, make([]time.Duration, nd*nd)...)
			grid := l.comm[int(c)*nd*nd:]
			cost.FillCommGrid(grid, est, b, devs)
			l.maxComm = append(l.maxComm, gridMax(grid))
		}
		l.classOf[ei] = c
	}
	l.baseClasses = len(l.maxComm)
	return l
}

// latExtPool recycles extension lattices: OS-DPOS builds one per overlay
// candidate, and the ext backing arrays dominate the allocation.
var latExtPool = sync.Pool{New: func() any { return &costLattice{} }}

func resizeInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// extendLattice derives a candidate lattice from the base graph's lattice
// in O(Δ · nDevs²): base arrays are shared via copied slice headers, the
// overlay's delta ops get fresh exec rows, and delta edges resolve against
// the frozen base class map first, then against the (tiny) extension class
// list, with new sizes resolved from the estimator. octx must come from
// overlayContext over the context base was built for. Release with
// releaseLattice.
func extendLattice(base *costLattice, octx *scheduleContext,
	devs []*device.Device, est cost.Estimator) *costLattice {
	nd := base.nDevs
	deltaOps := octx.nOps - base.baseOps
	deltaEdges := octx.numEdges() - base.baseEdges

	l := latExtPool.Get().(*costLattice)
	// Keep the pooled ext backing arrays across the base-header copy.
	extExec, extMaxW, extMinW := l.extExec, l.extMaxW, l.extMinW
	extClassOf, extComm, extMaxComm, extBytes := l.extClassOf, l.extComm, l.extMaxComm, l.extBytes
	*l = *base
	l.extExec = resizeDurations(extExec, deltaOps*nd)
	l.extMaxW = resizeDurations(extMaxW, deltaOps)
	l.extMinW = resizeDurations(extMinW, deltaOps)
	l.extClassOf = resizeInt32s(extClassOf, deltaEdges)
	l.extComm = extComm[:0]
	l.extMaxComm = extMaxComm[:0]
	l.extBytes = extBytes[:0]

	for _, op := range octx.ov.NewOps() {
		i := op.ID - base.baseOps
		l.extMaxW[i], l.extMinW[i] = fillExecStats(
			l.extExec[i*nd:(i+1)*nd], est, op, devs)
	}
	for j := 0; j < deltaEdges; j++ {
		b := octx.extraEdges[j].Bytes
		if c, ok := l.classes[b]; ok {
			l.extClassOf[j] = c
			continue
		}
		found := false
		for k, eb := range l.extBytes {
			if eb == b {
				l.extClassOf[j] = int32(base.baseClasses + k)
				found = true
				break
			}
		}
		if found {
			continue
		}
		l.extClassOf[j] = int32(base.baseClasses + len(l.extBytes))
		l.extBytes = append(l.extBytes, b)
		l.extComm = append(l.extComm, make([]time.Duration, nd*nd)...)
		grid := l.extComm[len(l.extComm)-nd*nd:]
		cost.FillCommGrid(grid, est, b, devs)
		l.extMaxComm = append(l.extMaxComm, gridMax(grid))
	}
	return l
}

// releaseLattice recycles an extension lattice produced by extendLattice.
// Base lattices (buildLattice) are never pooled: cached ones stay live in
// the ring below, uncached ones are rare enough to leave to the GC.
func releaseLattice(l *costLattice) {
	if l != nil {
		latExtPool.Put(l)
	}
}

// latCacheSize bounds the global lattice cache; sized like the context ring
// so the handful of live (graph, estimator) pairs of a calculation hit.
const latCacheSize = 8

var latCache struct {
	sync.Mutex
	entries [latCacheSize]latEntry
	next    int
}

type latEntry struct {
	ctx     *scheduleContext
	cluster *device.Cluster
	est     cost.Estimator
	lat     *costLattice
}

// latticeFor returns the dense cost lattice for (ctx, cluster, est).
// Results are cached only for estimators that guarantee immutable
// predictions (cost.Frozen): snapshots and oracles hit across repeated
// schedules of one graph; a mutable learned model is resolved fresh every
// call so later observations are never masked by a stale table.
func latticeFor(ctx *scheduleContext, cluster *device.Cluster,
	est cost.Estimator) *costLattice {
	if !cost.IsFrozen(est) {
		return buildLattice(ctx, cluster.Devices(), est)
	}
	latCache.Lock()
	for i := range latCache.entries {
		e := &latCache.entries[i]
		if e.ctx == ctx && e.cluster == cluster && e.est == est && !ctx.stale() {
			l := e.lat
			latCache.Unlock()
			return l
		}
	}
	latCache.Unlock()

	l := buildLattice(ctx, cluster.Devices(), est)

	latCache.Lock()
	slot := -1
	for i := range latCache.entries {
		e := &latCache.entries[i]
		if e.ctx == ctx && e.cluster == cluster && e.est == est {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = latCache.next
		latCache.next = (latCache.next + 1) % latCacheSize
	}
	latCache.entries[slot] = latEntry{ctx: ctx, cluster: cluster, est: est, lat: l}
	latCache.Unlock()
	return l
}
