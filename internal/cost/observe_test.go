package cost

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
	"fastt/internal/runtime"
	"fastt/internal/sim"
)

// observePerSpan is the per-span path ObserveRun replaced: one Observe per
// span and per transfer, in result order.
func observePerSpan(m *Model, g *graph.Graph, res *runtime.Result) {
	for _, span := range res.Spans {
		m.Comp.Observe(g.Op(span.Op).Name, span.Device, span.End-span.Start)
	}
	for _, tr := range res.Transfers {
		m.Link.Observe(tr.From, tr.To, tr.Bytes, tr.End-tr.Start)
	}
}

// checkSameModels fails unless a and b hold bit-identical statistics —
// exact, per-class and per-name — and their snapshots predict the same
// time for every op of every graph on every device, one outside the
// cluster included, and for every device pair.
func checkSameModels(t *testing.T, step string, a, b *Model, cluster *device.Cluster, graphs ...*graph.Graph) {
	t.Helper()
	var aj, bj bytes.Buffer
	if err := a.WriteJSON(&aj); err != nil {
		t.Fatalf("%s: WriteJSON: %v", step, err)
	}
	if err := b.WriteJSON(&bj); err != nil {
		t.Fatalf("%s: WriteJSON: %v", step, err)
	}
	if !bytes.Equal(aj.Bytes(), bj.Bytes()) {
		t.Fatalf("%s: one-call and per-span observation wrote different models:\n%s\nvs\n%s", step, aj.Bytes(), bj.Bytes())
	}
	if !reflect.DeepEqual(a.Comp.byName, b.Comp.byName) || !reflect.DeepEqual(a.Comp.byClass, b.Comp.byClass) ||
		a.Link.classes != b.Link.classes {
		t.Fatalf("%s: one-call and per-span observation pooled different aggregates", step)
	}
	sa, sb := ReadSnapshot(a), ReadSnapshot(b)
	devs := append(append([]*device.Device(nil), cluster.Devices()...), &device.Device{ID: cluster.NumDevices() + 4})
	for _, g := range graphs {
		for _, op := range g.Ops() {
			for _, dev := range devs {
				if x, y := sa.Exec(op, dev), sb.Exec(op, dev); x != y {
					t.Fatalf("%s: Exec(%s, dev %d) = %v one-call, %v per-span", step, op.Name, dev.ID, x, y)
				}
			}
		}
	}
	for _, from := range cluster.Devices() {
		for _, to := range cluster.Devices() {
			for _, n := range []int64{1, 1 << 16, 1 << 24} {
				if x, y := sa.Comm(n, from, to), sb.Comm(n, from, to); x != y {
					t.Fatalf("%s: Comm(%d, %d->%d) = %v one-call, %v per-span", step, n, from.ID, to.ID, x, y)
				}
			}
		}
	}
}

// TestObserveRunMatchesPerSpanObserve feeds the same simulated iterations
// to one model through ObserveRun and to another span by span, and requires
// identical models after every step: on a data-parallel graph, on a split
// candidate of it and back (the per-graph cache switching), under a changed
// placement, across a structural change of the graph (a new version), and
// with a span on a device outside the cluster. The cluster mixes V100 and
// T4 so the per-class aggregates are exercised too.
func TestObserveRunMatchesPerSpanObserve(t *testing.T) {
	cluster, err := device.NewHeterogeneous(&device.Spec{Servers: []device.SpecServer{
		{GPUs: []string{device.ClassV100, device.ClassT4}},
		{GPUs: []string{device.ClassV100}},
	}})
	if err != nil {
		t.Fatalf("NewHeterogeneous: %v", err)
	}
	spec, err := models.ByName("LeNet")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	m, err := spec.Build(16)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	g, err := graph.BuildDataParallel(m, 3)
	if err != nil {
		t.Fatalf("BuildDataParallel: %v", err)
	}
	var split *graph.Graph
	for _, op := range g.Ops() {
		if s, err := graph.SplitOperation(g, op.ID, graph.DimBatch, 2); err == nil {
			split = s
			break
		}
	}
	if split == nil {
		t.Fatal("no op of the graph splits on the batch dimension")
	}
	engine := sim.NewEngine(cluster, kernels.NewDefaultOracle(cluster))
	seed := int64(0)
	run := func(g *graph.Graph, shift int) *runtime.Result {
		t.Helper()
		place := make([]int, g.NumOps())
		for i := range place {
			place[i] = (i/3 + shift) % cluster.NumDevices()
		}
		seed++
		res, err := engine.Run(g, place, sim.Config{Jitter: 0.05, Seed: seed, DisableMemoryCheck: true})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if len(res.Transfers) == 0 {
			t.Fatal("the placement moves no tensor between devices")
		}
		return res
	}

	one, per := NewModel(cluster), NewModel(cluster)
	observe := func(step string, g *graph.Graph, res *runtime.Result) {
		t.Helper()
		ReadSnapshot(one) // memoise a snapshot the observation must drop
		one.ObserveRun(g, res)
		observePerSpan(per, g, res)
		checkSameModels(t, step, one, per, cluster, g, split)
	}
	observe("first iteration", g, run(g, 0))
	observe("second iteration", g, run(g, 0))
	observe("split graph", split, run(split, 0))
	observe("back to the data-parallel graph", g, run(g, 0))
	observe("changed placement", g, run(g, 1))

	// A structural change advances the version: the new op's ID lies past
	// everything the cache has seen.
	extra := g.MustAddOp(&graph.Op{Name: "extra", Kind: graph.KindMatMul, FLOPs: 1 << 20, OutputBytes: 1 << 10})
	g.MustConnect(0, extra, 1<<10)
	observe("new graph version", g, run(g, 2))

	res := run(g, 0)
	res.Spans = append(res.Spans, runtime.Span{Op: extra, Device: cluster.NumDevices() + 4, End: 3 * time.Millisecond})
	observe("span on a device outside the cluster", g, res)
}
