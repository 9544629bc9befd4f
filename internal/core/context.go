package core

import (
	"sync"
	"time"

	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
)

// scheduleContext holds the graph-derived structures every scheduling pass
// would otherwise re-derive per call: the topological order, the per-op
// incoming/outgoing edge indexes, and the entry list. All fields are
// immutable after construction, so one context may serve any number of
// concurrent readers. Each search builds the contexts it schedules on and
// drops them when it returns: nothing outlives the search that built it.
//
// A context views either a real graph (ov == nil) or a graph.SplitOverlay
// over one (ov != nil, built by overlayContext). Overlay contexts have no
// topo order — delta rank updates never need one — and carry a dead op ID
// (the tombstoned split target) that schedulers must skip. Consumers must
// address ops and edges through the accessors below rather than through
// c.g, which for an overlay context is only the base graph.
type scheduleContext struct {
	g       *graph.Graph
	ov      *graph.SplitOverlay // non-nil for overlay views
	topo    []int               // empty for overlay contexts
	outIdx  [][]int             // op ID -> global edge indexes (outgoing)
	inIdx   [][]int             // op ID -> global edge indexes (incoming)
	entries []int               // entry op IDs, ascending
	indeg   []int               // sortTopo's scratch
	nOps    int
	dead    int // tombstoned op ID, or -1
	// Edge storage: global index ei < len(baseEdges) addresses
	// baseEdges[ei], anything beyond addresses extraEdges[ei-len].
	baseEdges  []graph.Edge
	extraEdges []graph.Edge
}

// newScheduleContext derives a context for g; it fails only on cyclic
// graphs. The edge-index rows are the graph's own (OutEdgeIndex,
// InEdgeIndex): no context writes to a row it shares (see overlayContext).
// The context comes from the pool; release it with releaseContext.
func newScheduleContext(g *graph.Graph) (*scheduleContext, error) {
	n := g.NumOps()
	c := ctxPool.Get().(*scheduleContext)
	c.g, c.ov = g, nil
	c.outIdx = resize(c.outIdx, n)
	c.inIdx = resize(c.inIdx, n)
	c.entries = c.entries[:0]
	for id := 0; id < n; id++ {
		c.outIdx[id] = g.OutEdgeIndex(id)
		c.inIdx[id] = g.InEdgeIndex(id)
		if len(c.inIdx[id]) == 0 {
			c.entries = append(c.entries, id)
		}
	}
	c.nOps = n
	c.dead = -1
	c.baseEdges = g.Edges()
	c.extraEdges = nil
	if !c.sortTopo() {
		releaseContext(c)
		return nil, graph.ErrCycle
	}
	return c, nil
}

// sortTopo fills c.topo with a topological order (Kahn's algorithm, the
// order itself serving as the queue of ready ops) and reports whether the
// graph is acyclic. Every reader of topo accumulates values that depend
// only on an op's successors, so any topological order yields the same
// bytes.
func (c *scheduleContext) sortTopo() bool {
	c.indeg = resize(c.indeg, c.nOps)
	for id, row := range c.inIdx {
		c.indeg[id] = len(row)
	}
	c.topo = append(resize(c.topo, c.nOps)[:0], c.entries...)
	for head := 0; head < len(c.topo); head++ {
		for _, ei := range c.outIdx[c.topo[head]] {
			to := c.baseEdges[ei].To
			if c.indeg[to]--; c.indeg[to] == 0 {
				c.topo = append(c.topo, to)
			}
		}
	}
	return len(c.topo) == c.nOps
}

// graphState is what a search derives from one graph before scheduling
// it: the context, the cost lattice resolved on it and the ranks computed
// from both, all pooled. The search that builds it releases it.
type graphState struct {
	ctx   *scheduleContext
	lat   *costLattice
	ranks *Ranks
}

// newGraphState builds the scheduling state of g on devs under est.
func newGraphState(g *graph.Graph, devs []*device.Device, est cost.Estimator) (graphState, error) {
	ctx, err := newScheduleContext(g)
	if err != nil {
		return graphState{}, err
	}
	lat := buildLattice(ctx, devs, est)
	return graphState{ctx: ctx, lat: lat, ranks: computeRanksCtx(ctx, lat)}, nil
}

// release recycles the state once nothing reads it.
func (s graphState) release() {
	releaseRanks(s.ranks)
	releaseLattice(s.lat)
	releaseContext(s.ctx)
}

// edgeAt resolves a global edge index.
func (c *scheduleContext) edgeAt(ei int) graph.Edge {
	if ei < len(c.baseEdges) {
		return c.baseEdges[ei]
	}
	return c.extraEdges[ei-len(c.baseEdges)]
}

// numEdges returns the size of the global edge index space (dead base edges
// included for overlay contexts; they are never referenced by outIdx/inIdx).
func (c *scheduleContext) numEdges() int {
	return len(c.baseEdges) + len(c.extraEdges)
}

// op resolves an op ID in the context's view.
func (c *scheduleContext) op(id int) *graph.Op {
	if c.ov != nil {
		return c.ov.Op(id)
	}
	return c.g.Op(id)
}

// opByName resolves a name in the context's view.
func (c *scheduleContext) opByName(name string) (*graph.Op, bool) {
	if c.ov != nil {
		return c.ov.OpByName(name)
	}
	return c.g.OpByName(name)
}

// ctxPool recycles contexts: OS-DPOS builds an overlay context per split
// candidate and a graph context per committed round, and the outIdx/inIdx
// headers are the dominant allocation.
var ctxPool = sync.Pool{New: func() any { return &scheduleContext{} }}

// dropEdge returns a copy of an edge-index row without ei, with spare
// capacity for the single replacement edge the overlay appends.
func dropEdge(row []int, ei int) []int {
	out := make([]int, 0, len(row))
	for _, e := range row {
		if e != ei {
			out = append(out, e)
		}
	}
	return out
}

// overlayContext derives the scheduling view of a split overlay from the
// base graph's context in O(V + Δ): row headers are copied (rows of
// untouched ops share the base backing arrays), only the rows of the
// target's predecessors/successors are patched, and rows for the delta ops
// are built from the delta edges. The per-op relative edge order matches
// the graph SplitOperation would build — base-order edges first, the
// replacement edge appended last — so channel-booking and tie-break
// decisions downstream are identical to the clone path's.
//
// base must be the context of ov.Base(). The returned context goes back to
// the pool via releaseContext.
func overlayContext(base *scheduleContext, ov *graph.SplitOverlay) *scheduleContext {
	baseN := base.nOps
	nOps := ov.NumOps()
	baseE := len(base.baseEdges)
	tgt := ov.Target().ID

	c := ctxPool.Get().(*scheduleContext)
	c.g = base.g
	c.ov = ov
	c.topo = c.topo[:0]
	c.nOps = nOps
	c.dead = tgt
	c.baseEdges = base.baseEdges
	c.extraEdges = ov.NewEdges()
	c.outIdx = resize(c.outIdx, nOps)
	c.inIdx = resize(c.inIdx, nOps)
	copy(c.outIdx, base.outIdx)
	copy(c.inIdx, base.inIdx)
	for i := baseN; i < nOps; i++ {
		c.outIdx[i], c.inIdx[i] = nil, nil
	}
	c.outIdx[tgt], c.inIdx[tgt] = nil, nil
	// Patch the rows that referenced the target: predecessors lose their
	// out-edge to it, successors their in-edge from it.
	for _, ei := range base.inIdx[tgt] {
		from := base.baseEdges[ei].From
		c.outIdx[from] = dropEdge(base.outIdx[from], ei)
	}
	for _, ei := range base.outIdx[tgt] {
		to := base.baseEdges[ei].To
		c.inIdx[to] = dropEdge(base.inIdx[to], ei)
	}
	// Thread the delta edges in. Rows touched here are either the freshly
	// patched pred/succ rows or the nil rows of delta ops — never a shared
	// base backing array.
	for j := range c.extraEdges {
		e := &c.extraEdges[j]
		gi := baseE + j
		c.outIdx[e.From] = append(c.outIdx[e.From], gi)
		c.inIdx[e.To] = append(c.inIdx[e.To], gi)
	}
	// Entry list: splitting an entry op turns its sub-ops into entries
	// (their IDs exceed every base ID, so ascending order is preserved).
	c.entries = c.entries[:0]
	if len(base.inIdx[tgt]) == 0 {
		for _, id := range base.entries {
			if id != tgt {
				c.entries = append(c.entries, id)
			}
		}
		c.entries = append(c.entries, ov.SubOpIDs()...)
	} else {
		c.entries = append(c.entries, base.entries...)
	}
	return c
}

// releaseContext recycles a context from newScheduleContext or
// overlayContext once nothing reads it. It drops the graph, overlay and
// edge storage, so a pooled context keeps no search's graph alive.
func releaseContext(c *scheduleContext) {
	if c != nil {
		c.g, c.ov, c.baseEdges, c.extraEdges = nil, nil, nil, nil
		ctxPool.Put(c)
	}
}

// Scratch recycling. OS-DPOS runs one full DPOS per candidate split, and a
// session recomputes strategies every profiling round; without reuse each
// run re-allocates O(ops + edges + devices) working state. sync.Pool keeps
// the recycling safe for the concurrent candidate workers.

// resize returns s resliced to length n, without zeroing, reallocating
// when its capacity falls short. A new buffer gets an eighth of headroom:
// each split OS-DPOS commits grows the graph by a few ops, and without it
// every pooled buffer would be re-allocated at every commit.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/8)
	}
	return s[:n]
}

var ranksPool = sync.Pool{New: func() any { return &Ranks{} }}

// ranksFromPool returns a Ranks sized for nOps/nEdges; every element is
// overwritten by computeRanksCtx, so no zeroing is needed. The queue is
// sized and filled by the rank computation that needs one.
func ranksFromPool(nOps, nEdges int) *Ranks {
	r := ranksPool.Get().(*Ranks)
	r.W = resize(r.W, nOps)
	r.MinW = resize(r.MinW, nOps)
	r.CMax = resize(r.CMax, nEdges)
	r.Rank = resize(r.Rank, nOps)
	r.RestMin = resize(r.RestMin, nOps)
	return r
}

// releaseRanks recycles a Ranks the caller no longer references. Never
// release ranks returned to package clients (ComputeRanks).
func releaseRanks(r *Ranks) {
	if r != nil {
		ranksPool.Put(r)
	}
}

var schedulePool = sync.Pool{New: func() any { return &Schedule{} }}

// scheduleFromPool returns a Schedule with all per-op slices sized to n.
// Start/Finish/Placement/Order/Priorities are fully written by dposCtx.
func scheduleFromPool(n int) *Schedule {
	s := schedulePool.Get().(*Schedule)
	s.Placement = resize(s.Placement, n)
	s.Order = resize(s.Order, n)
	s.Priorities = resize(s.Priorities, n)
	s.Start = resize(s.Start, n)
	s.Finish = resize(s.Finish, n)
	s.Makespan = 0
	s.CriticalPath = nil
	return s
}

// releaseSchedule recycles a schedule that lost a candidate comparison or
// was superseded. Never release a schedule that escapes to a caller.
func releaseSchedule(s *Schedule) {
	if s != nil {
		schedulePool.Put(s)
	}
}

// dposScratch is the per-run working state of one DPOS list-scheduling
// pass.
//
// The channel books are epoch-stamped flat arrays instead of maps: an entry
// is valid only when its stamp matches the current epoch, so invalidating a
// whole book costs one counter increment — no clearing, no map hashing.
// chanAvail (the committed per-(src dev, dst dev) copy-engine frontier) is
// small (nDevs²) and is zeroed per run instead of stamped. copyDone — the
// committed arrival time per (producer op, dest device), deduplicating
// transfers of one tensor to several consumers on a device — is O(ops ×
// devs) and validated against the per-run epoch. probeChan/probeCopy are
// the non-committing EFT-probe overlays, validated against a fresh epoch
// per probed op (their keys name the destination device, so one epoch
// serves the probes of every device); stamps never repeat across runs because the counter only
// grows for the lifetime of the pooled scratch, and freshly grown arrays
// hold zero stamps the counter has already passed.
type dposScratch struct {
	onCP   []bool
	placed []bool
	states []deviceState

	epoch     uint64          // last issued stamp; 0 is never issued
	chanAvail []time.Duration // nDevs²: committed channel frontier
	copyDone  []time.Duration // nOps × nDevs: committed arrivals
	copyEpoch []uint64
	probeChan []time.Duration // nDevs²: per-probe channel overlay
	probeCEp  []uint64
	probeCopy []time.Duration // nOps × nDevs: per-probe arrival overlay
	probeDEp  []uint64
	// probeReady is, per device, when the probed op's inputs are present.
	probeReady []time.Duration
}

var scratchPool = sync.Pool{New: func() any { return &dposScratch{} }}

// reset prepares the scratch for one run and returns the run epoch that
// validates copyDone entries.
func (s *dposScratch) reset(nOps, nDevs int) uint64 {
	s.onCP = resize(s.onCP, nOps)
	clear(s.onCP)
	s.placed = resize(s.placed, nOps)
	clear(s.placed)
	if cap(s.states) >= nDevs {
		s.states = s.states[:nDevs]
	} else {
		s.states = make([]deviceState, nDevs)
	}
	for i := range s.states {
		s.states[i].intervals = s.states[i].intervals[:0]
		s.states[i].memFree = 0
		s.states[i].lastEnd = 0
	}
	s.chanAvail = resize(s.chanAvail, nDevs*nDevs)
	for i := range s.chanAvail {
		s.chanAvail[i] = 0
	}
	s.probeChan = resize(s.probeChan, nDevs*nDevs)
	s.probeCEp = resize(s.probeCEp, nDevs*nDevs)
	s.copyDone = resize(s.copyDone, nOps*nDevs)
	s.copyEpoch = resize(s.copyEpoch, nOps*nDevs)
	s.probeCopy = resize(s.probeCopy, nOps*nDevs)
	s.probeDEp = resize(s.probeDEp, nOps*nDevs)
	s.probeReady = resize(s.probeReady, nDevs)
	s.epoch++
	return s.epoch
}

// nextEpoch issues a fresh probe epoch.
func (s *dposScratch) nextEpoch() uint64 {
	s.epoch++
	return s.epoch
}
