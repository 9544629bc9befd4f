package placement

import (
	"errors"
	"testing"

	"fastt/internal/device"
	"fastt/internal/graph"
)

// dpFixture builds a 2-replica data-parallel graph of a one-layer model.
func dpFixture(t *testing.T, replicas int) *graph.Graph {
	t.Helper()
	m := graph.New()
	in := m.MustAddOp(&graph.Op{Name: "input", Kind: graph.KindInput, OutputBytes: 64, Batch: 4})
	fc := m.MustAddOp(&graph.Op{
		Name: "fc", Kind: graph.KindMatMul, FLOPs: 1e6,
		ParamBytes: 1024, OutputBytes: 32, Batch: 4, Channels: 8,
	})
	bp := m.MustAddOp(&graph.Op{
		Name: "fc_bp", Kind: graph.KindMatMulBackprop, FLOPs: 2e6,
		OutputBytes: 1024, Batch: 4, GradFor: "fc",
	})
	m.MustConnect(in, fc, 64)
	m.MustConnect(fc, bp, 32)
	g, err := graph.BuildDataParallel(m, replicas)
	if err != nil {
		t.Fatalf("BuildDataParallel: %v", err)
	}
	return g
}

func TestDataParallelPinsReplicas(t *testing.T) {
	g := dpFixture(t, 2)
	c, err := device.SingleServer(2)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	place, err := DataParallel(g, c)
	if err != nil {
		t.Fatalf("DataParallel: %v", err)
	}
	for _, op := range g.Ops() {
		want := op.Replica
		if op.Replica < 0 {
			want = 0
		}
		if op.ColocateWith != "" {
			target, _ := g.OpByName(op.ColocateWith)
			want = place[target.ID]
		}
		if place[op.ID] != want {
			t.Errorf("op %s on device %d, want %d", op.Name, place[op.ID], want)
		}
	}
}

func TestDataParallelTooManyReplicas(t *testing.T) {
	g := dpFixture(t, 4)
	c, err := device.SingleServer(2)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	if _, err := DataParallel(g, c); !errors.Is(err, ErrTooManyReplicas) {
		t.Errorf("err = %v, want ErrTooManyReplicas", err)
	}
}

func TestModelParallelBalancesMemory(t *testing.T) {
	g := graph.New()
	prev := -1
	// Chain of 8 equal-footprint stages.
	for i := 0; i < 8; i++ {
		id := g.MustAddOp(&graph.Op{
			Name: "layer" + string(rune('a'+i)), Kind: graph.KindMatMul,
			FLOPs: 1e6, ParamBytes: 1 << 20, OutputBytes: 1 << 10, Batch: 4, Channels: 8,
		})
		if prev >= 0 {
			g.MustConnect(prev, id, 1<<10)
		}
		prev = id
	}
	c, err := device.SingleServer(4)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	place, err := ModelParallel(g, c)
	if err != nil {
		t.Fatalf("ModelParallel: %v", err)
	}
	counts := make([]int, 4)
	for _, d := range place {
		counts[d]++
	}
	for dev, n := range counts {
		if n == 0 {
			t.Errorf("device %d received no stage", dev)
		}
	}
	// Stages must be contiguous in topological order.
	order, _ := g.TopoOrder()
	for i := 1; i < len(order); i++ {
		if place[order[i]] < place[order[i-1]] {
			t.Error("model-parallel stages not monotone along the chain")
		}
	}
}

func TestModelParallelDoesNotFit(t *testing.T) {
	g := graph.New()
	g.MustAddOp(&graph.Op{Name: "big", Kind: graph.KindMatMul, ParamBytes: 10 * device.GiB})
	c, err := device.SingleServer(2)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	for _, d := range c.Devices() {
		d.MemoryBytes = 1 * device.GiB
	}
	_, err = ModelParallel(g, c)
	if !errors.Is(err, ErrDoesNotFit) {
		t.Errorf("err = %v, want ErrDoesNotFit", err)
	}
}

func TestSingleDevice(t *testing.T) {
	g := dpFixture(t, 1)
	place := SingleDevice(g)
	for _, d := range place {
		if d != 0 {
			t.Fatal("SingleDevice placed an op off device 0")
		}
	}
}

func TestPublishedSpeedupsSane(t *testing.T) {
	for _, e := range PublishedSpeedups() {
		if e.Normalized <= 0 || e.Normalized > 3 {
			t.Errorf("implausible published speedup %+v", e)
		}
		if e.GPUs != 2 && e.GPUs != 4 && e.GPUs != 8 {
			t.Errorf("unexpected GPU count %+v", e)
		}
		if e.Method.String() == "unknown" {
			t.Errorf("unknown method in %+v", e)
		}
	}
	if len(FastTPaperBars()) == 0 {
		t.Error("no FastT paper bars recorded")
	}
}
