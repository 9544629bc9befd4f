package core

import (
	"sync"
	"time"

	"fastt/internal/graph"
)

// scheduleContext caches the graph-derived structures every scheduling pass
// would otherwise re-derive per call: the topological order, the per-op
// incoming/outgoing edge indexes, and the entry list. All fields are
// immutable after construction, so one context may serve any number of
// concurrent readers. Validity is keyed on (graph pointer, version): a
// structural mutation of the graph bumps its version counter and makes the
// context stale.
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
	version uint64
	topo    []int   // nil for overlay contexts
	outIdx  [][]int // op ID -> global edge indexes (outgoing)
	inIdx   [][]int // op ID -> global edge indexes (incoming)
	entries []int   // entry op IDs, ascending
	nOps    int
	dead    int // tombstoned op ID, or -1
	// Edge storage: global index ei < len(baseEdges) addresses
	// baseEdges[ei], anything beyond addresses extraEdges[ei-len].
	baseEdges  []graph.Edge
	extraEdges []graph.Edge
}

// newScheduleContext derives a fresh context; it fails only on cyclic
// graphs.
func newScheduleContext(g *graph.Graph) (*scheduleContext, error) {
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	c := &scheduleContext{
		g:         g,
		version:   g.Version(),
		topo:      topo,
		outIdx:    make([][]int, g.NumOps()),
		inIdx:     make([][]int, g.NumOps()),
		entries:   g.EntryOps(),
		nOps:      g.NumOps(),
		dead:      -1,
		baseEdges: g.Edges(),
	}
	for i, e := range g.Edges() {
		c.outIdx[e.From] = append(c.outIdx[e.From], i)
		c.inIdx[e.To] = append(c.inIdx[e.To], i)
	}
	return c, nil
}

// stale reports whether the graph was structurally mutated (AddOp, Connect)
// after the context was built.
func (c *scheduleContext) stale() bool { return c.version != c.g.Version() }

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

// overlayCtxPool recycles overlay contexts: OS-DPOS builds one per split
// candidate, and the outIdx/inIdx headers are the dominant allocation.
var overlayCtxPool = sync.Pool{New: func() any { return &scheduleContext{} }}

func resizeRows(s [][]int, n int) [][]int {
	if cap(s) < n {
		return make([][]int, n)
	}
	return s[:n]
}

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
// the pool via releaseOverlayContext.
func overlayContext(base *scheduleContext, ov *graph.SplitOverlay) *scheduleContext {
	baseN := base.nOps
	nOps := ov.NumOps()
	baseE := len(base.baseEdges)
	tgt := ov.Target().ID

	c := overlayCtxPool.Get().(*scheduleContext)
	c.g = base.g
	c.ov = ov
	c.version = base.version
	c.topo = nil
	c.nOps = nOps
	c.dead = tgt
	c.baseEdges = base.baseEdges
	c.extraEdges = ov.NewEdges()
	c.outIdx = resizeRows(c.outIdx, nOps)
	c.inIdx = resizeRows(c.inIdx, nOps)
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

// releaseOverlayContext recycles a context produced by overlayContext.
func releaseOverlayContext(c *scheduleContext) {
	if c != nil {
		overlayCtxPool.Put(c)
	}
}

// ctxCacheSize bounds the global context cache. Each cached entry keeps its
// graph reachable, so the cache is a small fixed ring rather than an
// unbounded map: repeated calculator invocations over the handful of live
// graphs (the session's model graph, the gsc/OS-DPOS working graph) hit,
// and throwaway candidate graphs cycle out.
const ctxCacheSize = 8

var ctxCache struct {
	sync.Mutex
	entries [ctxCacheSize]*scheduleContext
	next    int
}

// contextFor returns a scheduleContext for g, reusing a cached one when g
// was seen before and has not been mutated since. A stale entry for the
// same graph is replaced in place.
func contextFor(g *graph.Graph) (*scheduleContext, error) {
	ctxCache.Lock()
	for _, c := range ctxCache.entries {
		if c != nil && c.g == g && !c.stale() {
			ctxCache.Unlock()
			return c, nil
		}
	}
	ctxCache.Unlock()

	c, err := newScheduleContext(g)
	if err != nil {
		return nil, err
	}

	ctxCache.Lock()
	slot := -1
	for i, old := range ctxCache.entries {
		if old != nil && old.g == g {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = ctxCache.next
		ctxCache.next = (ctxCache.next + 1) % ctxCacheSize
	}
	ctxCache.entries[slot] = c
	ctxCache.Unlock()
	return c, nil
}

// Scratch recycling. OS-DPOS runs one full DPOS per candidate split, and a
// session recomputes strategies every profiling round; without reuse each
// run re-allocates O(ops + edges + devices) working state. sync.Pool keeps
// the recycling safe for the concurrent candidate workers.

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		s = make([]bool, n)
		return s
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

func resizeDurations(s []time.Duration, n int) []time.Duration {
	if cap(s) < n {
		return make([]time.Duration, n)
	}
	return s[:n]
}

var ranksPool = sync.Pool{New: func() any { return &Ranks{} }}

// ranksFromPool returns a Ranks sized for nOps/nEdges; every element is
// overwritten by computeRanksCtx, so no zeroing is needed. The queue is
// sized and filled by the rank computation that needs one.
func ranksFromPool(nOps, nEdges int) *Ranks {
	r := ranksPool.Get().(*Ranks)
	r.W = resizeDurations(r.W, nOps)
	r.MinW = resizeDurations(r.MinW, nOps)
	r.CMax = resizeDurations(r.CMax, nEdges)
	r.Rank = resizeDurations(r.Rank, nOps)
	r.RestMin = resizeDurations(r.RestMin, nOps)
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
	s.Placement = resizeInts(s.Placement, n)
	s.Order = resizeInts(s.Order, n)
	s.Priorities = resizeInts(s.Priorities, n)
	s.Start = resizeDurations(s.Start, n)
	s.Finish = resizeDurations(s.Finish, n)
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

func resizeUint64s(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
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
	s.onCP = resizeBools(s.onCP, nOps)
	s.placed = resizeBools(s.placed, nOps)
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
	s.chanAvail = resizeDurations(s.chanAvail, nDevs*nDevs)
	for i := range s.chanAvail {
		s.chanAvail[i] = 0
	}
	s.probeChan = resizeDurations(s.probeChan, nDevs*nDevs)
	s.probeCEp = resizeUint64s(s.probeCEp, nDevs*nDevs)
	s.copyDone = resizeDurations(s.copyDone, nOps*nDevs)
	s.copyEpoch = resizeUint64s(s.copyEpoch, nOps*nDevs)
	s.probeCopy = resizeDurations(s.probeCopy, nOps*nDevs)
	s.probeDEp = resizeUint64s(s.probeDEp, nOps*nDevs)
	s.probeReady = resizeDurations(s.probeReady, nDevs)
	s.epoch++
	return s.epoch
}

// nextEpoch issues a fresh probe epoch.
func (s *dposScratch) nextEpoch() uint64 {
	s.epoch++
	return s.epoch
}
