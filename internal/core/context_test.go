package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
)

// appendRows is the edge-index derivation contexts used before they shared
// the graph's rows: one append per edge, in edge order.
func appendRows(g *graph.Graph) (out, in [][]int) {
	out = make([][]int, g.NumOps())
	in = make([][]int, g.NumOps())
	for i, e := range g.Edges() {
		out[e.From] = append(out[e.From], i)
		in[e.To] = append(in[e.To], i)
	}
	return out, in
}

// checkContextRows compares a graph context with the append-loop oracle:
// the same rows, the same entry list, and a topological order of every op.
func checkContextRows(g *graph.Graph) error {
	ctx, err := newScheduleContext(g)
	if err != nil {
		return err
	}
	defer releaseContext(ctx)
	out, in := appendRows(g)
	for id := 0; id < g.NumOps(); id++ {
		if !slices.Equal(ctx.outIdx[id], out[id]) || !slices.Equal(ctx.inIdx[id], in[id]) {
			return fmt.Errorf("op %d: rows out %v in %v, want %v %v",
				id, ctx.outIdx[id], ctx.inIdx[id], out[id], in[id])
		}
	}
	if !slices.Equal(ctx.entries, g.EntryOps()) {
		return fmt.Errorf("entries %v, want %v", ctx.entries, g.EntryOps())
	}
	pos := make([]int, g.NumOps())
	for i := range pos {
		pos[i] = -1
	}
	for p, id := range ctx.topo {
		if pos[id] >= 0 {
			return fmt.Errorf("op %d twice in topo", id)
		}
		pos[id] = p
	}
	if len(ctx.topo) != g.NumOps() {
		return fmt.Errorf("topo has %d ops, graph %d", len(ctx.topo), g.NumOps())
	}
	for _, e := range g.Edges() {
		if pos[e.From] > pos[e.To] {
			return fmt.Errorf("edge %d->%d against topo order", e.From, e.To)
		}
	}
	return nil
}

// TestScheduleContextMatchesAppendRows checks newScheduleContext against
// the append-loop oracle on catalog graphs and on a SplitOperation result,
// whose rows were grown by appends after the clone.
func TestScheduleContextMatchesAppendRows(t *testing.T) {
	specs := models.Catalog()
	if testing.Short() {
		specs = specs[:3]
	}
	for _, spec := range specs {
		for _, gpus := range []int{2, 8} {
			m, err := spec.Build(gpus)
			if err != nil {
				t.Fatal(err)
			}
			g, err := graph.BuildDataParallel(m, gpus)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkContextRows(g); err != nil {
				t.Fatalf("%s@%d: %v", spec.Name, gpus, err)
			}
			for id := 0; id < g.NumOps(); id++ {
				dims := g.Op(id).SplittableDims()
				if len(dims) == 0 || len(g.InEdgeIndex(id)) == 0 {
					continue
				}
				sg, err := graph.SplitOperation(g, id, dims[0], 2)
				if err != nil {
					continue
				}
				if err := checkContextRows(sg); err != nil {
					t.Fatalf("%s@%d split %q: %v", spec.Name, gpus, g.Op(id).Name, err)
				}
				break
			}
		}
	}
}

// edgeRows snapshots every edge-index row of g out to its capacity, so a
// write into a row's spare capacity shows too.
func edgeRows(g *graph.Graph) [][]int {
	rows := make([][]int, 0, 2*g.NumOps())
	for id := 0; id < g.NumOps(); id++ {
		for _, r := range [][]int{g.OutEdgeIndex(id), g.InEdgeIndex(id)} {
			rows = append(rows, slices.Clone(r[:cap(r)]))
		}
	}
	return rows
}

// TestSearchLeavesGraphRows runs full searches, candidates fanned out on
// 1, 2 and 4 workers, and checks that no context wrote to a row it shares
// with the input graph: every row keeps its length and values, spare
// capacity included.
func TestSearchLeavesGraphRows(t *testing.T) {
	cells := []struct {
		model string
		gpus  int
	}{{"Transformer", 4}, {"VGG-19", 4}}
	if testing.Short() {
		cells = cells[:1]
	}
	for _, cell := range cells {
		spec, err := models.ByName(cell.model)
		if err != nil {
			t.Fatal(err)
		}
		m, err := spec.Build(cell.gpus)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.BuildDataParallel(m, cell.gpus)
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := device.SingleServer(cell.gpus)
		if err != nil {
			t.Fatal(err)
		}
		want := edgeRows(g)
		lens := make([]int, 0, len(want))
		for id := 0; id < g.NumOps(); id++ {
			lens = append(lens, len(g.OutEdgeIndex(id)), len(g.InEdgeIndex(id)))
		}
		for _, w := range []int{1, 2, 4} {
			s, err := ComputeStrategyCtx(context.Background(), g, cluster,
				kernels.NewDefaultOracle(cluster), Options{MaxSplitOps: 4, MaxSyncGroups: 4, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			got := edgeRows(g)
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("%s@%d workers=%d: row %d of op %d changed: %v, want %v",
						cell.model, cell.gpus, w, i%2, i/2, got[i], want[i])
				}
			}
			for id := 0; id < g.NumOps(); id++ {
				if len(g.OutEdgeIndex(id)) != lens[2*id] || len(g.InEdgeIndex(id)) != lens[2*id+1] {
					t.Fatalf("%s@%d workers=%d: op %d rows changed length",
						cell.model, cell.gpus, w, id)
				}
			}
			if err := checkContextRows(s.Graph); err != nil {
				t.Fatalf("%s@%d workers=%d: final graph: %v", cell.model, cell.gpus, w, err)
			}
		}
	}
}

// TestDPOSAfterGraphGrows schedules a graph, grows it, and schedules it
// again: the second search must see the new op, though its context may
// come from the pool sized for the smaller graph.
func TestDPOSAfterGraphGrows(t *testing.T) {
	g, est := diamond(t)
	c := clusterN(t, 2)
	if _, err := DPOS(g, c, est, Options{}); err != nil {
		t.Fatal(err)
	}
	id := g.MustAddOp(&graph.Op{Name: "late", FLOPs: 1, Batch: 1})
	g.MustConnect(0, id, 64)
	sched, err := DPOS(g, c, est, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Placement) != g.NumOps() || sched.Placement[id] < 0 {
		t.Fatalf("schedule covers %d of %d ops, late op on %d",
			len(sched.Placement), g.NumOps(), sched.Placement[id])
	}
}

// liveHeap returns the live heap after two collections, the second of which
// also empties the sync.Pool victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSearchesRetainNothing runs back-to-back ComputeStrategy calls, each
// on a freshly built graph that is dropped afterwards, and reads the live
// heap after each: a search may keep nothing of its graphs, contexts or
// lattices once it returns, so the heap stays flat in the number of
// searches.
func TestSearchesRetainNothing(t *testing.T) {
	model, gpus, n := "ResNet200", 8, 5
	if testing.Short() {
		model, gpus, n = "Transformer", 4, 4
	}
	spec, err := models.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := device.SingleServer(gpus)
	if err != nil {
		t.Fatal(err)
	}
	oracle := kernels.NewDefaultOracle(cluster)
	search := func() {
		m, err := spec.Build(gpus)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.BuildDataParallel(m, gpus)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ComputeStrategy(g, cluster, oracle, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	search()
	base := liveHeap()
	for i := 1; i <= n; i++ {
		search()
		if h := liveHeap(); h > base+1<<20 {
			t.Fatalf("%s@%d: live heap %d B after %d more searches, %d B after the first: searches retain memory",
				model, gpus, h, i, base)
		}
	}
}
