package graph

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Sentinel errors callers may match with errors.Is.
var (
	// ErrCycle is returned when a supposedly acyclic graph contains a cycle.
	ErrCycle = errors.New("graph contains a cycle")
	// ErrUnknownOp is returned when an op ID is out of range.
	ErrUnknownOp = errors.New("unknown operation")
	// ErrDuplicateName is returned when two ops share a name.
	ErrDuplicateName = errors.New("duplicate operation name")
	// ErrDuplicateEdge is returned when an edge is added twice.
	ErrDuplicateEdge = errors.New("duplicate edge")
	// ErrSelfEdge is returned when an edge would loop an op to itself.
	ErrSelfEdge = errors.New("self edge")
)

// Edge is a tensor flowing from one operation to another. Bytes is the
// tensor size; the communication cost model predicts its transfer time when
// From and To land on different devices.
type Edge struct {
	From, To int
	Bytes    int64
}

// Graph is a DNN computation DAG. Ops are identified by dense integer IDs
// (their index), which placement strategies and the simulator use to index
// flat slices.
//
// Digest memoises the graph's hash on the structural version, which only
// AddOp and Connect advance. So once a graph has been digested (directly,
// or through strategy.Fingerprint by any artifact, search or cache key
// built on it), the fields of its ops are frozen: an in-place write to an
// *Op would leave the memo stale. Build a graph completely before hashing
// it, or Clone it and edit the copy.
type Graph struct {
	ops    []*Op
	edges  []Edge
	out    [][]int // op ID -> indices into edges (outgoing)
	in     [][]int // op ID -> indices into edges (incoming)
	byName map[string]int
	// version counts structural mutations (AddOp, Connect). Consumers that
	// cache graph-derived structures (topological order, edge indexes) key
	// their caches on (pointer, Version) and treat a version mismatch as
	// staleness.
	version uint64
	// digest memoises Digest for one version. Clone starts without it.
	digest atomic.Pointer[graphDigest]
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{byName: make(map[string]int)}
}

// NewWithCapacity returns an empty graph with storage preallocated for the
// given numbers of operations and edges, for bulk graph construction
// (data-parallel replication, SplitOperation candidates).
func NewWithCapacity(ops, edges int) *Graph {
	return &Graph{
		ops:    make([]*Op, 0, ops),
		edges:  make([]Edge, 0, edges),
		out:    make([][]int, 0, ops),
		in:     make([][]int, 0, ops),
		byName: make(map[string]int, ops),
	}
}

// Version returns the graph's structural mutation counter. Any AddOp or
// Connect increments it; two reads returning the same value bracket a span
// with no structural rewrites.
func (g *Graph) Version() uint64 { return g.version }

// NumOps returns the number of operations.
func (g *Graph) NumOps() int { return len(g.ops) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddOp inserts op, assigns and returns its ID. The op's Name must be
// non-empty and unique within the graph.
func (g *Graph) AddOp(op *Op) (int, error) {
	if op.Name == "" {
		return 0, errors.New("operation name is empty")
	}
	if _, ok := g.byName[op.Name]; ok {
		return 0, fmt.Errorf("%w: %q", ErrDuplicateName, op.Name)
	}
	op.ID = len(g.ops)
	g.ops = append(g.ops, op)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.byName[op.Name] = op.ID
	g.version++
	return op.ID, nil
}

// MustAddOp is AddOp for graph builders with statically known unique names;
// it panics on builder bugs (duplicate or empty names) rather than
// propagating errors through every model constructor.
func (g *Graph) MustAddOp(op *Op) int {
	id, err := g.AddOp(op)
	if err != nil {
		panic(err)
	}
	return id
}

// Connect adds a tensor edge carrying the given bytes from op `from` to op
// `to`.
func (g *Graph) Connect(from, to int, bytes int64) error {
	if !g.valid(from) || !g.valid(to) {
		return fmt.Errorf("%w: edge %d->%d", ErrUnknownOp, from, to)
	}
	if from == to {
		return fmt.Errorf("%w: op %d", ErrSelfEdge, from)
	}
	for _, ei := range g.out[from] {
		if g.edges[ei].To == to {
			return fmt.Errorf("%w: %d->%d", ErrDuplicateEdge, from, to)
		}
	}
	g.connectUnchecked(from, to, bytes)
	return nil
}

// connectUnchecked appends an edge without range, self-edge, or duplicate
// detection. Reserved for bulk construction paths (SplitOperation) whose
// inputs are already-validated graphs, where the per-edge duplicate scan of
// Connect dominates the rewrite cost.
func (g *Graph) connectUnchecked(from, to int, bytes int64) {
	ei := len(g.edges)
	g.edges = append(g.edges, Edge{From: from, To: to, Bytes: bytes})
	g.out[from] = append(g.out[from], ei)
	g.in[to] = append(g.in[to], ei)
	g.version++
}

// MustConnect is Connect for builders; see MustAddOp.
func (g *Graph) MustConnect(from, to int, bytes int64) {
	if err := g.Connect(from, to, bytes); err != nil {
		panic(err)
	}
}

func (g *Graph) valid(id int) bool { return id >= 0 && id < len(g.ops) }

// Op returns the operation with the given ID.
func (g *Graph) Op(id int) *Op { return g.ops[id] }

// OpByName returns the operation with the given name, if present.
func (g *Graph) OpByName(name string) (*Op, bool) {
	id, ok := g.byName[name]
	if !ok {
		return nil, false
	}
	return g.ops[id], true
}

// Ops returns the operations in ID order. The returned slice is shared;
// callers must not mutate it.
func (g *Graph) Ops() []*Op { return g.ops }

// Edges returns all edges. The returned slice is shared; callers must not
// mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// OutEdges returns the outgoing edges of op id.
func (g *Graph) OutEdges(id int) []Edge {
	return g.edgeList(g.out[id])
}

// InEdges returns the incoming edges of op id.
func (g *Graph) InEdges(id int) []Edge {
	return g.edgeList(g.in[id])
}

// OutEdgeIndex returns the indices into Edges of op id's outgoing edges, in
// insertion order, without copying: hot loops walk them allocation-free.
// The returned slice is shared; callers must not mutate it.
func (g *Graph) OutEdgeIndex(id int) []int { return g.out[id] }

// InEdgeIndex returns the indices into Edges of op id's incoming edges, in
// insertion order, shared like OutEdgeIndex's.
func (g *Graph) InEdgeIndex(id int) []int { return g.in[id] }

func (g *Graph) edgeList(idx []int) []Edge {
	if len(idx) == 0 {
		return nil
	}
	es := make([]Edge, len(idx))
	for i, ei := range idx {
		es[i] = g.edges[ei]
	}
	return es
}

// Successors returns the IDs of ops consuming id's output.
func (g *Graph) Successors(id int) []int {
	ids := make([]int, 0, len(g.out[id]))
	for _, ei := range g.out[id] {
		ids = append(ids, g.edges[ei].To)
	}
	return ids
}

// Predecessors returns the IDs of ops feeding id.
func (g *Graph) Predecessors(id int) []int {
	ids := make([]int, 0, len(g.in[id]))
	for _, ei := range g.in[id] {
		ids = append(ids, g.edges[ei].From)
	}
	return ids
}

// InDegree returns the number of incoming edges of op id.
func (g *Graph) InDegree(id int) int { return len(g.in[id]) }

// OutDegree returns the number of outgoing edges of op id.
func (g *Graph) OutDegree(id int) int { return len(g.out[id]) }

// EntryOps returns ops with no predecessors, in ID order.
func (g *Graph) EntryOps() []int {
	var ids []int
	for i := range g.ops {
		if len(g.in[i]) == 0 {
			ids = append(ids, i)
		}
	}
	return ids
}

// ExitOps returns ops with no successors, in ID order.
func (g *Graph) ExitOps() []int {
	var ids []int
	for i := range g.ops {
		if len(g.out[i]) == 0 {
			ids = append(ids, i)
		}
	}
	return ids
}

// TopoOrder returns a topological order of op IDs (Kahn's algorithm with a
// deterministic smallest-ID-first tie break) or ErrCycle if the graph is
// not acyclic.
func (g *Graph) TopoOrder() ([]int, error) {
	n := len(g.ops)
	indeg := make([]int, n)
	for i := range g.ops {
		indeg[i] = len(g.in[i])
	}
	// Min-heap on op ID for determinism.
	ready := &intHeap{}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready.push(i)
		}
	}
	order := make([]int, 0, n)
	for ready.len() > 0 {
		id := ready.pop()
		order = append(order, id)
		for _, ei := range g.out[id] {
			to := g.edges[ei].To
			indeg[to]--
			if indeg[to] == 0 {
				ready.push(to)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// Validate checks structural invariants: acyclicity and consistent
// adjacency. It returns the first violation found.
func (g *Graph) Validate() error {
	for i, op := range g.ops {
		if op.ID != i {
			return fmt.Errorf("op %q has ID %d at index %d", op.Name, op.ID, i)
		}
		if got, ok := g.byName[op.Name]; !ok || got != i {
			return fmt.Errorf("name index inconsistent for %q", op.Name)
		}
	}
	for ei, e := range g.edges {
		if !g.valid(e.From) || !g.valid(e.To) {
			return fmt.Errorf("edge %d references unknown op", ei)
		}
		if e.Bytes < 0 {
			return fmt.Errorf("edge %d has negative bytes", ei)
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		ops:     make([]*Op, len(g.ops)),
		edges:   make([]Edge, len(g.edges)),
		out:     make([][]int, len(g.out)),
		in:      make([][]int, len(g.in)),
		byName:  make(map[string]int, len(g.byName)),
		version: g.version,
	}
	for i, op := range g.ops {
		c.ops[i] = op.clone()
	}
	copy(c.edges, g.edges)
	for i, idx := range g.out {
		c.out[i] = append([]int(nil), idx...)
	}
	for i, idx := range g.in {
		c.in[i] = append([]int(nil), idx...)
	}
	for k, v := range g.byName {
		c.byName[k] = v
	}
	return c
}

// Stats summarizes a graph for reports and documentation.
type Stats struct {
	Ops         int
	Edges       int
	TotalFLOPs  int64
	ParamBytes  int64
	TensorBytes int64
}

// ComputeStats returns aggregate statistics of the graph.
func (g *Graph) ComputeStats() Stats {
	var s Stats
	s.Ops = len(g.ops)
	s.Edges = len(g.edges)
	for _, op := range g.ops {
		s.TotalFLOPs += op.FLOPs
		s.ParamBytes += op.ParamBytes
	}
	for _, e := range g.edges {
		s.TensorBytes += e.Bytes
	}
	return s
}

// OpsByKind returns the number of ops per kind, for analysis output.
func (g *Graph) OpsByKind() map[OpKind]int {
	m := make(map[OpKind]int)
	for _, op := range g.ops {
		m[op.Kind]++
	}
	return m
}

// intHeap is a minimal binary min-heap over ints, avoiding the
// container/heap interface boilerplate for this hot path.
type intHeap struct{ a []int }

func (h *intHeap) len() int { return len(h.a) }

func (h *intHeap) push(v int) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	v := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.a) && h.a[l] < h.a[small] {
			small = l
		}
		if r < len(h.a) && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return v
}
