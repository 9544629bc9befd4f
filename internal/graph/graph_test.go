package graph

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// chainGraph builds a linear chain a -> b -> c ... of n ops with the given
// kind, each with unit costs, for structural tests.
func chainGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g := New()
	prev := -1
	for i := 0; i < n; i++ {
		id := g.MustAddOp(&Op{
			Name:        "op" + string(rune('a'+i)),
			Kind:        KindMatMul,
			FLOPs:       100,
			OutputBytes: 10,
			Batch:       8,
			Channels:    8,
		})
		if prev >= 0 {
			g.MustConnect(prev, id, 10)
		}
		prev = id
	}
	return g
}

func TestAddOpAssignsSequentialIDs(t *testing.T) {
	g := New()
	for i := 0; i < 5; i++ {
		id, err := g.AddOp(&Op{Name: string(rune('a' + i)), Kind: KindRelu})
		if err != nil {
			t.Fatalf("AddOp: %v", err)
		}
		if id != i {
			t.Errorf("AddOp returned ID %d, want %d", id, i)
		}
	}
	if g.NumOps() != 5 {
		t.Errorf("NumOps = %d, want 5", g.NumOps())
	}
}

func TestAddOpRejectsEmptyAndDuplicateNames(t *testing.T) {
	g := New()
	if _, err := g.AddOp(&Op{Name: ""}); err == nil {
		t.Error("AddOp accepted empty name")
	}
	if _, err := g.AddOp(&Op{Name: "x", Kind: KindRelu}); err != nil {
		t.Fatalf("AddOp: %v", err)
	}
	_, err := g.AddOp(&Op{Name: "x", Kind: KindRelu})
	if !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate name error = %v, want ErrDuplicateName", err)
	}
}

func TestConnectValidation(t *testing.T) {
	g := chainGraph(t, 2)
	tests := []struct {
		name     string
		from, to int
		wantErr  error
	}{
		{"unknown from", 99, 0, ErrUnknownOp},
		{"unknown to", 0, 99, ErrUnknownOp},
		{"self edge", 0, 0, ErrSelfEdge},
		{"duplicate", 0, 1, ErrDuplicateEdge},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := g.Connect(tt.from, tt.to, 1)
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("Connect(%d,%d) = %v, want %v", tt.from, tt.to, err, tt.wantErr)
			}
		})
	}
}

func TestTopoOrderIsTopological(t *testing.T) {
	g := New()
	// Diamond: a -> b, a -> c, b -> d, c -> d.
	a := g.MustAddOp(&Op{Name: "a", Kind: KindInput})
	b := g.MustAddOp(&Op{Name: "b", Kind: KindRelu})
	c := g.MustAddOp(&Op{Name: "c", Kind: KindRelu})
	d := g.MustAddOp(&Op{Name: "d", Kind: KindAddN})
	g.MustConnect(a, b, 1)
	g.MustConnect(a, c, 1)
	g.MustConnect(b, d, 1)
	g.MustConnect(c, d, 1)

	order, err := g.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := make(map[int]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %d->%d violates topo order", e.From, e.To)
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := chainGraph(t, 3)
	// Force a back edge 2 -> 0 directly into internals via Connect.
	if err := g.Connect(2, 0, 1); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if _, err := g.TopoOrder(); !errors.Is(err, ErrCycle) {
		t.Errorf("TopoOrder on cyclic graph = %v, want ErrCycle", err)
	}
	if err := g.Validate(); !errors.Is(err, ErrCycle) {
		t.Errorf("Validate on cyclic graph = %v, want ErrCycle", err)
	}
}

func TestEntryAndExitOps(t *testing.T) {
	g := chainGraph(t, 4)
	if got := g.EntryOps(); len(got) != 1 || got[0] != 0 {
		t.Errorf("EntryOps = %v, want [0]", got)
	}
	if got := g.ExitOps(); len(got) != 1 || got[0] != 3 {
		t.Errorf("ExitOps = %v, want [3]", got)
	}
}

func TestSuccessorsPredecessors(t *testing.T) {
	g := chainGraph(t, 3)
	if got := g.Successors(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("Successors(0) = %v", got)
	}
	if got := g.Predecessors(2); len(got) != 1 || got[0] != 1 {
		t.Errorf("Predecessors(2) = %v", got)
	}
	if g.InDegree(0) != 0 || g.OutDegree(0) != 1 {
		t.Errorf("degree of entry wrong: in=%d out=%d", g.InDegree(0), g.OutDegree(0))
	}
}

func TestVersionCountsStructuralMutations(t *testing.T) {
	g := New()
	if g.Version() != 0 {
		t.Fatalf("empty graph version = %d, want 0", g.Version())
	}
	a := g.MustAddOp(&Op{Name: "a"})
	b := g.MustAddOp(&Op{Name: "b"})
	after := g.Version()
	if after != 2 {
		t.Fatalf("version after 2 AddOps = %d, want 2", after)
	}
	g.MustConnect(a, b, 10)
	if g.Version() <= after {
		t.Fatal("Connect did not bump the version")
	}
	// Failed mutations must not bump it.
	v := g.Version()
	if _, err := g.AddOp(&Op{Name: "a"}); err == nil {
		t.Fatal("duplicate AddOp succeeded")
	}
	if err := g.Connect(a, b, 10); err == nil {
		t.Fatal("duplicate Connect succeeded")
	}
	if g.Version() != v {
		t.Fatalf("failed mutations changed version %d -> %d", v, g.Version())
	}
	// Clone carries the counter so caches keyed on (pointer, version)
	// behave identically on the copy.
	if c := g.Clone(); c.Version() != g.Version() {
		t.Fatalf("clone version %d, want %d", c.Version(), g.Version())
	}
	// SplitOperation builds through the bulk path; the result must still
	// count its mutations.
	sg := chainGraph(t, 3)
	out, err := SplitOperation(sg, 1, DimBatch, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Version() == 0 {
		t.Fatal("split candidate has zero version")
	}
}

func TestNewWithCapacityBehavesLikeNew(t *testing.T) {
	g := NewWithCapacity(4, 4)
	a := g.MustAddOp(&Op{Name: "a"})
	b := g.MustAddOp(&Op{Name: "b"})
	g.MustConnect(a, b, 10)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumOps() != 2 || g.NumEdges() != 1 {
		t.Fatalf("got %d ops, %d edges", g.NumOps(), g.NumEdges())
	}
	if op, ok := g.OpByName("b"); !ok || op.ID != b {
		t.Fatal("name index broken under preallocation")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := chainGraph(t, 3)
	c := g.Clone()
	c.Op(0).Name = "mutated"
	c.MustAddOp(&Op{Name: "extra", Kind: KindRelu})
	if g.Op(0).Name == "mutated" {
		t.Error("Clone shares op pointers with original")
	}
	if g.NumOps() != 3 {
		t.Errorf("original NumOps changed to %d", g.NumOps())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("original invalid after clone mutation: %v", err)
	}
}

func TestComputeStats(t *testing.T) {
	g := New()
	a := g.MustAddOp(&Op{Name: "a", Kind: KindConv2D, FLOPs: 100, ParamBytes: 40, OutputBytes: 8})
	b := g.MustAddOp(&Op{Name: "b", Kind: KindRelu, FLOPs: 50})
	g.MustConnect(a, b, 8)
	s := g.ComputeStats()
	if s.Ops != 2 || s.Edges != 1 || s.TotalFLOPs != 150 || s.ParamBytes != 40 || s.TensorBytes != 8 {
		t.Errorf("ComputeStats = %+v", s)
	}
}

func TestSplittableDimsRespectExtents(t *testing.T) {
	tests := []struct {
		name string
		op   Op
		want int
	}{
		{"conv with batch and channels", Op{Kind: KindConv2D, Batch: 8, Channels: 64}, 2},
		{"conv batch only", Op{Kind: KindConv2D, Batch: 8, Channels: 1}, 1},
		{"batchnorm never", Op{Kind: KindBatchNorm, Batch: 8, Channels: 64}, 0},
		{"variable never", Op{Kind: KindVariable, Batch: 8}, 0},
		{"relu batch", Op{Kind: KindRelu, Batch: 2}, 1},
		{"relu batch 1", Op{Kind: KindRelu, Batch: 1}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.op.SplittableDims(); len(got) != tt.want {
				t.Errorf("SplittableDims = %v, want %d dims", got, tt.want)
			}
		})
	}
}

func TestOpResidentBytes(t *testing.T) {
	op := &Op{ParamBytes: 100, OutputBytes: 10, WorkspaceBytes: 5}
	if got := op.ResidentBytes(); got != 4*100+10+5 {
		t.Errorf("forward ResidentBytes = %d, want 415", got)
	}
	op.Kind = KindMatMulBackprop
	if got := op.ResidentBytes(); got != 4*100+5 {
		t.Errorf("backward ResidentBytes = %d, want 405", got)
	}
}

func TestWriteDOTContainsOpsAndEdges(t *testing.T) {
	g := chainGraph(t, 2)
	var sb strings.Builder
	if err := g.WriteDOT(&sb, []int{0, 1}); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "n0 ->", "fillcolor"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

// randomDAG builds a random DAG with n ops where each edge goes from a lower
// ID to a higher ID, guaranteeing acyclicity.
func randomDAG(rng *rand.Rand, n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.MustAddOp(&Op{
			Name:        "op" + strings.Repeat("x", i+1),
			Kind:        KindMatMul,
			FLOPs:       rng.Int63n(1000) + 1,
			OutputBytes: rng.Int63n(100) + 1,
			Batch:       8,
			Channels:    8,
		})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				g.MustConnect(i, j, rng.Int63n(50)+1)
			}
		}
	}
	return g
}

func TestTopoOrderPropertyRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		g := randomDAG(rng, n)
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		pos := make(map[int]int, len(order))
		for i, id := range order {
			pos[id] = i
		}
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return len(order) == g.NumOps()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
