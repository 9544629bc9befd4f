package sim

import (
	"errors"
	"testing"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
)

const launch = 8 * time.Microsecond // kernels.DefaultConfig().LaunchOverhead

func newTestEngine(t *testing.T, gpus int) *Engine {
	t.Helper()
	c, err := device.SingleServer(gpus)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	return NewEngine(c, kernels.NewDefaultOracle(c))
}

// trivialOp returns an op whose exec time is exactly the launch overhead.
func trivialOp(name string) *graph.Op {
	return &graph.Op{Name: name, Kind: graph.KindIdentity}
}

func TestRunSerialChainOneDevice(t *testing.T) {
	e := newTestEngine(t, 1)
	g := graph.New()
	a := g.MustAddOp(trivialOp("a"))
	b := g.MustAddOp(trivialOp("b"))
	c := g.MustAddOp(trivialOp("c"))
	g.MustConnect(a, b, 0)
	g.MustConnect(b, c, 0)

	res, err := e.Run(g, []int{0, 0, 0}, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Makespan != 3*launch {
		t.Errorf("Makespan = %v, want %v", res.Makespan, 3*launch)
	}
	if len(res.Transfers) != 0 {
		t.Errorf("same-device run produced %d transfers", len(res.Transfers))
	}
	if res.ComputeBusy[0] != 3*launch {
		t.Errorf("ComputeBusy = %v, want %v", res.ComputeBusy[0], 3*launch)
	}
}

func TestRunIndependentOpsParallelAcrossDevices(t *testing.T) {
	e := newTestEngine(t, 2)
	g := graph.New()
	g.MustAddOp(trivialOp("a"))
	g.MustAddOp(trivialOp("b"))

	res, err := e.Run(g, []int{0, 1}, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Makespan != launch {
		t.Errorf("parallel Makespan = %v, want %v", res.Makespan, launch)
	}
}

func TestRunSerializesOnOneDevice(t *testing.T) {
	e := newTestEngine(t, 1)
	g := graph.New()
	g.MustAddOp(trivialOp("a"))
	g.MustAddOp(trivialOp("b"))

	res, err := e.Run(g, []int{0, 0}, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Makespan != 2*launch {
		t.Errorf("serialized Makespan = %v, want %v", res.Makespan, 2*launch)
	}
}

func TestRunCrossDeviceTransferCost(t *testing.T) {
	e := newTestEngine(t, 2)
	g := graph.New()
	a := g.MustAddOp(&graph.Op{Name: "a", Kind: graph.KindIdentity, OutputBytes: 22_000_000})
	b := g.MustAddOp(trivialOp("b"))
	g.MustConnect(a, b, 22_000_000)

	res, err := e.Run(g, []int{0, 1}, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Transfers) != 1 {
		t.Fatalf("Transfers = %d, want 1", len(res.Transfers))
	}
	// 22 MB over 22 GB/s NVLink = 1 ms + 10us latency.
	xfer := res.Transfers[0]
	want := time.Millisecond + 10*time.Microsecond
	got := xfer.End - xfer.Start
	if got < want-time.Microsecond || got > want+time.Microsecond {
		t.Errorf("transfer duration = %v, want ~%v", got, want)
	}
	// Makespan includes the transfer between the two launches.
	if res.Makespan < 2*launch+want-time.Microsecond {
		t.Errorf("Makespan = %v, want at least %v", res.Makespan, 2*launch+want)
	}
	if res.MemcpyBusy[1] == 0 {
		t.Error("MemcpyBusy not charged to receiving device")
	}
}

func TestRunDedupesTransfersPerDestinationDevice(t *testing.T) {
	e := newTestEngine(t, 2)
	g := graph.New()
	a := g.MustAddOp(&graph.Op{Name: "a", Kind: graph.KindIdentity, OutputBytes: 1 << 20})
	b := g.MustAddOp(trivialOp("b"))
	c := g.MustAddOp(trivialOp("c"))
	g.MustConnect(a, b, 1<<20)
	g.MustConnect(a, c, 1<<20)

	res, err := e.Run(g, []int{0, 1, 1}, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// One physical copy serving two consumers: two Transfer records with
	// identical Start/End (bookkeeping per consumer), but memcpy time
	// charged once.
	if len(res.Transfers) != 2 {
		t.Fatalf("Transfers = %d, want 2 records", len(res.Transfers))
	}
	if res.Transfers[0].Start != res.Transfers[1].Start ||
		res.Transfers[0].End != res.Transfers[1].End {
		t.Error("consumers on one device did not share a physical copy")
	}
	single := res.Transfers[0].End - res.Transfers[0].Start
	if res.MemcpyBusy[1] != single {
		t.Errorf("MemcpyBusy = %v, want one copy %v", res.MemcpyBusy[1], single)
	}
}

func TestRunPriorityOrderEnforced(t *testing.T) {
	// Device 0 has two ready ops: "slowpath" feeds a remote consumer, and
	// "local" is independent busywork. Running "slowpath" first overlaps
	// the transfer with "local"; FIFO (both ready at t=0, lower ID first)
	// would run "local" first and stall the remote device longer.
	e := newTestEngine(t, 2)
	g := graph.New()
	local := g.MustAddOp(&graph.Op{Name: "local", Kind: graph.KindConv2D, FLOPs: 5e9, OutputBytes: 4096})
	slow := g.MustAddOp(&graph.Op{Name: "slowpath", Kind: graph.KindIdentity, OutputBytes: 22_000_000})
	sink := g.MustAddOp(trivialOp("sink"))
	g.MustConnect(slow, sink, 22_000_000)

	place := []int{0, 0, 1}
	fifo, err := e.Run(g, place, Config{Discipline: FIFO})
	if err != nil {
		t.Fatalf("FIFO Run: %v", err)
	}
	// Priorities: slowpath first, then local, then sink.
	prio := make([]int, g.NumOps())
	prio[slow] = 0
	prio[local] = 1
	prio[sink] = 2
	enforced, err := e.Run(g, place, Config{Discipline: Priority, Priorities: prio})
	if err != nil {
		t.Fatalf("Priority Run: %v", err)
	}
	if enforced.Makespan >= fifo.Makespan {
		t.Errorf("order enforcement did not help: enforced=%v fifo=%v",
			enforced.Makespan, fifo.Makespan)
	}
}

func TestRunPriorityRequiresPriorities(t *testing.T) {
	e := newTestEngine(t, 1)
	g := graph.New()
	g.MustAddOp(trivialOp("a"))
	_, err := e.Run(g, []int{0}, Config{Discipline: Priority})
	if !errors.Is(err, ErrBadPlacement) {
		t.Errorf("err = %v, want ErrBadPlacement", err)
	}
}

func TestRunBadPlacement(t *testing.T) {
	e := newTestEngine(t, 1)
	g := graph.New()
	g.MustAddOp(trivialOp("a"))
	tests := []struct {
		name  string
		place []int
	}{
		{"wrong length", []int{}},
		{"negative device", []int{-1}},
		{"device out of range", []int{7}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := e.Run(g, tt.place, Config{}); !errors.Is(err, ErrBadPlacement) {
				t.Errorf("err = %v, want ErrBadPlacement", err)
			}
		})
	}
}

func TestRunOOMOnParameters(t *testing.T) {
	c, err := device.SingleServer(1)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	c.Device(0).MemoryBytes = 1 << 20
	e := NewEngine(c, kernels.NewDefaultOracle(c))
	g := graph.New()
	g.MustAddOp(&graph.Op{Name: "big", Kind: graph.KindMatMul, ParamBytes: 1 << 20})

	_, err = e.Run(g, []int{0}, Config{})
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("err = %v, want OOMError", err)
	}
	if oom.Device != 0 || oom.Capacity != 1<<20 {
		t.Errorf("OOM details = %+v", oom)
	}
}

func TestRunOOMOnActivations(t *testing.T) {
	c, err := device.SingleServer(1)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	c.Device(0).MemoryBytes = 1 << 20
	e := NewEngine(c, kernels.NewDefaultOracle(c))
	g := graph.New()
	// Two live activations of 600 KB cannot coexist in 1 MB.
	a := g.MustAddOp(&graph.Op{Name: "a", Kind: graph.KindIdentity, OutputBytes: 600 << 10})
	b := g.MustAddOp(&graph.Op{Name: "b", Kind: graph.KindIdentity, OutputBytes: 600 << 10})
	z := g.MustAddOp(trivialOp("z"))
	g.MustConnect(a, b, 600<<10)
	g.MustConnect(b, z, 600<<10)

	_, err = e.Run(g, []int{0, 0, 0}, Config{})
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("err = %v, want OOMError", err)
	}
	// The same graph passes with memory checking disabled.
	if _, err := e.Run(g, []int{0, 0, 0}, Config{DisableMemoryCheck: true}); err != nil {
		t.Errorf("DisableMemoryCheck run failed: %v", err)
	}
}

func TestRunActivationFreedAfterConsumers(t *testing.T) {
	e := newTestEngine(t, 1)
	g := graph.New()
	a := g.MustAddOp(&graph.Op{Name: "a", Kind: graph.KindIdentity, OutputBytes: 100})
	b := g.MustAddOp(&graph.Op{Name: "b", Kind: graph.KindIdentity, OutputBytes: 100})
	c := g.MustAddOp(&graph.Op{Name: "c", Kind: graph.KindIdentity, OutputBytes: 100})
	g.MustConnect(a, b, 100)
	g.MustConnect(b, c, 100)

	res, err := e.Run(g, []int{0, 0, 0}, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// At most two activations live at once (producer + consumer).
	if res.PeakMemory[0] > 200 {
		t.Errorf("PeakMemory = %d, want <= 200", res.PeakMemory[0])
	}
}

func TestRunJitterReproducible(t *testing.T) {
	e := newTestEngine(t, 2)
	g := graph.New()
	a := g.MustAddOp(&graph.Op{Name: "a", Kind: graph.KindConv2D, FLOPs: 1e9, OutputBytes: 1 << 20})
	b := g.MustAddOp(trivialOp("b"))
	g.MustConnect(a, b, 1<<20)
	place := []int{0, 1}

	r1, err := e.Run(g, place, Config{Jitter: 0.1, Seed: 42})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r2, err := e.Run(g, place, Config{Jitter: 0.1, Seed: 42})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r1.Makespan != r2.Makespan {
		t.Errorf("same seed gave different makespans: %v vs %v", r1.Makespan, r2.Makespan)
	}
	r3, err := e.Run(g, place, Config{Jitter: 0.1, Seed: 43})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r1.Makespan == r3.Makespan {
		t.Error("different seeds gave identical makespans; jitter inert")
	}
}

func TestRunSpansSortedAndComplete(t *testing.T) {
	e := newTestEngine(t, 2)
	g := graph.New()
	a := g.MustAddOp(trivialOp("a"))
	b := g.MustAddOp(trivialOp("b"))
	c := g.MustAddOp(trivialOp("c"))
	g.MustConnect(a, b, 0)
	g.MustConnect(a, c, 0)

	res, err := e.Run(g, []int{0, 1, 0}, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Spans) != 3 {
		t.Fatalf("Spans = %d, want 3", len(res.Spans))
	}
	for i := 1; i < len(res.Spans); i++ {
		if res.Spans[i].Start < res.Spans[i-1].Start {
			t.Error("spans not sorted by start time")
		}
	}
}

func TestResultAggregates(t *testing.T) {
	r := &Result{
		ComputeBusy: []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 0},
		MemcpyBusy:  []time.Duration{time.Millisecond, 2 * time.Millisecond, 0},
	}
	if got := r.AvgComputeBusy(); got != 15*time.Millisecond {
		t.Errorf("AvgComputeBusy = %v, want 15ms", got)
	}
	if got := r.TotalMemcpy(); got != 3*time.Millisecond {
		t.Errorf("TotalMemcpy = %v, want 3ms", got)
	}
}

func TestRunDataParallelGraphEndToEnd(t *testing.T) {
	// Smoke test: a replicated model with gradient sync executes cleanly
	// and produces cross-device gradient traffic.
	m := graph.New()
	in := m.MustAddOp(&graph.Op{Name: "input", Kind: graph.KindInput, OutputBytes: 1 << 16, Batch: 8})
	fc := m.MustAddOp(&graph.Op{
		Name: "fc", Kind: graph.KindMatMul, FLOPs: 1e8,
		ParamBytes: 1 << 20, OutputBytes: 1 << 12, Batch: 8, Channels: 64,
	})
	loss := m.MustAddOp(&graph.Op{Name: "loss", Kind: graph.KindLoss, FLOPs: 1e4, OutputBytes: 4, Batch: 8})
	bp := m.MustAddOp(&graph.Op{
		Name: "fc_bp", Kind: graph.KindMatMulBackprop, FLOPs: 2e8,
		OutputBytes: 1 << 20, Batch: 8, GradFor: "fc",
	})
	m.MustConnect(in, fc, 1<<16)
	m.MustConnect(fc, loss, 1<<12)
	m.MustConnect(loss, bp, 4)
	m.MustConnect(fc, bp, 1<<12)

	dp, err := graph.BuildDataParallel(m, 2)
	if err != nil {
		t.Fatalf("BuildDataParallel: %v", err)
	}
	e := newTestEngine(t, 2)
	place := make([]int, dp.NumOps())
	for _, op := range dp.Ops() {
		if op.Replica >= 0 {
			place[op.ID] = op.Replica
		}
	}
	res, err := e.Run(dp, place, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Transfers) == 0 {
		t.Error("data-parallel run produced no gradient traffic")
	}
	if res.Makespan <= 0 {
		t.Error("non-positive makespan")
	}
}
