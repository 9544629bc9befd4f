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

// latPool recycles base lattices: every search builds one per graph it
// schedules (the initial graph and each committed split graph).
var latPool = sync.Pool{New: func() any { return &costLattice{} }}

// buildLattice resolves the full lattice for a context, sharing one comm
// grid per distinct tensor size (see costLattice). It accepts both graph
// and overlay contexts; a tombstoned op keeps a zero row, which is never
// read because the dead op is never scheduled or ranked. The lattice comes
// from the pool; release it with releaseLattice.
func buildLattice(ctx *scheduleContext, devs []*device.Device,
	est cost.Estimator) *costLattice {
	nd := len(devs)
	nOps := ctx.nOps
	nEdges := ctx.numEdges()
	l := latPool.Get().(*costLattice)
	l.nDevs, l.baseOps, l.baseEdges = nd, nOps, nEdges
	l.exec = resize(l.exec, nOps*nd)
	l.maxW = resize(l.maxW, nOps)
	l.minW = resize(l.minW, nOps)
	l.classOf = resize(l.classOf, nEdges)
	l.comm, l.maxComm = l.comm[:0], l.maxComm[:0]
	for id := 0; id < nOps; id++ {
		if id == ctx.dead {
			clear(l.exec[id*nd : (id+1)*nd])
			l.maxW[id], l.minW[id] = 0, 0
			continue
		}
		l.maxW[id], l.minW[id] = fillExecStats(
			l.exec[id*nd:(id+1)*nd], est, ctx.op(id), devs)
	}
	if l.classes == nil {
		l.classes = make(map[int64]int32)
	}
	clear(l.classes)
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

// releaseLattice recycles a lattice from buildLattice once nothing reads
// it, extensions of it included.
func releaseLattice(l *costLattice) {
	if l != nil {
		latPool.Put(l)
	}
}

// latExtPool recycles extension lattices: OS-DPOS builds one per overlay
// candidate, and the ext backing arrays dominate the allocation.
var latExtPool = sync.Pool{New: func() any { return &costLattice{} }}

// extendLattice derives a candidate lattice from the base graph's lattice
// in O(Δ · nDevs²): base arrays are shared via copied slice headers, the
// overlay's delta ops get fresh exec rows, and delta edges resolve against
// the frozen base class map first, then against the (tiny) extension class
// list, with new sizes resolved from the estimator. octx must come from
// overlayContext over the context base was built for. Release with
// releaseExtension.
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
	l.extExec = resize(extExec, deltaOps*nd)
	l.extMaxW = resize(extMaxW, deltaOps)
	l.extMinW = resize(extMinW, deltaOps)
	l.extClassOf = resize(extClassOf, deltaEdges)
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

// releaseExtension recycles an extension lattice from extendLattice. The
// extension pool is kept apart from latPool because an extension shares
// its base's arrays.
func releaseExtension(l *costLattice) {
	if l != nil {
		latExtPool.Put(l)
	}
}
