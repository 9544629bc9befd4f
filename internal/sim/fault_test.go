package sim

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/runtime"
	"fastt/internal/strategy"
)

func faultTestGraph(t *testing.T, rng *rand.Rand, devices int) (*graph.Graph, []int) {
	t.Helper()
	g, place := randomPlacedGraph(rng, devices)
	return g, place
}

func TestFaultPlanValidate(t *testing.T) {
	good := &FaultPlan{Faults: []FaultSpec{
		{Kind: kindDeviceFailure, AtNs: 10, Device: 1},
		{Kind: kindStraggler, AtNs: 5, Device: 0, Factor: 2},
		{Kind: kindLinkDegrade, AtNs: 7, From: 0, To: 1, Factor: 4},
	}}
	if err := good.Validate(2); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := []FaultPlan{
		{Faults: []FaultSpec{{Kind: "meltdown", AtNs: 1}}},
		{Faults: []FaultSpec{{Kind: kindDeviceFailure, AtNs: -1}}},
		{Faults: []FaultSpec{{Kind: kindDeviceFailure, AtNs: 1, Device: 2}}},
		{Faults: []FaultSpec{{Kind: kindStraggler, AtNs: 1, Device: 0, Factor: 0.5}}},
		{Faults: []FaultSpec{{Kind: kindLinkDegrade, AtNs: 1, From: 0, To: 0, Factor: 2}}},
		{Faults: []FaultSpec{{Kind: kindLinkDegrade, AtNs: 1, From: 0, To: 7, Factor: 2}}},
	}
	for i, p := range bad {
		if err := p.Validate(2); !errors.Is(err, ErrBadFaultPlan) {
			t.Errorf("bad plan %d: got %v, want ErrBadFaultPlan", i, err)
		}
	}
}

func TestFaultPlanRoundTrip(t *testing.T) {
	p := GeneratePlan(42, 8, 5, 10*time.Second, 3*time.Second)
	if len(p.Faults) == 0 {
		t.Fatal("generated plan is empty")
	}
	if err := p.Validate(8); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadPlan(&buf)
	if err != nil {
		t.Fatalf("ReadPlan: %v", err)
	}
	var again bytes.Buffer
	if err := back.WriteJSON(&again); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	var first bytes.Buffer
	_ = p.WriteJSON(&first)
	if !bytes.Equal(first.Bytes(), again.Bytes()) {
		t.Fatal("fault plan round trip not byte-identical")
	}
}

func TestGeneratePlanDeterministic(t *testing.T) {
	a := GeneratePlan(7, 4, 10, 5*time.Second, 0)
	b := GeneratePlan(7, 4, 10, 5*time.Second, 0)
	var ab, bb bytes.Buffer
	_ = a.WriteJSON(&ab)
	_ = b.WriteJSON(&bb)
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Fatal("equal seeds produced different plans")
	}
	c := GeneratePlan(8, 4, 10, 5*time.Second, 0)
	var cb bytes.Buffer
	_ = c.WriteJSON(&cb)
	if bytes.Equal(ab.Bytes(), cb.Bytes()) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestDeviceFailureAbortsRun(t *testing.T) {
	c, err := device.SingleServer(2)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	e := NewEngine(c, kernels.NewDefaultOracle(c))
	rng := rand.New(rand.NewSource(3))
	g, place := faultTestGraph(t, rng, 2)

	clean, err := e.Run(g, place, Config{DisableMemoryCheck: true})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	failAt := clean.Makespan / 2
	plan := &FaultPlan{Faults: []FaultSpec{
		{Kind: kindDeviceFailure, AtNs: int64(failAt), Device: 1},
	}}
	_, err = e.Run(g, place, Config{DisableMemoryCheck: true, Faults: plan})
	var lost *runtime.DeviceLostError
	if !errors.As(err, &lost) {
		t.Fatalf("got %v, want DeviceLostError", err)
	}
	if lost.Device != 1 || lost.At != failAt {
		t.Fatalf("lost device %d at %v, want device 1 at %v", lost.Device, lost.At, failAt)
	}

	// A failure scheduled after the iteration window does not fire.
	late := &FaultPlan{Faults: []FaultSpec{
		{Kind: kindDeviceFailure, AtNs: int64(clean.Makespan) * 10, Device: 1},
	}}
	if _, err := e.Run(g, place, Config{DisableMemoryCheck: true, Faults: late}); err != nil {
		t.Fatalf("future failure aborted the run: %v", err)
	}

	// A failure in the past (relative to the epoch) aborts immediately.
	past := &FaultPlan{Faults: []FaultSpec{
		{Kind: kindDeviceFailure, AtNs: 5, Device: 0},
	}}
	_, err = e.Run(g, place, Config{
		DisableMemoryCheck: true, Faults: past, FaultEpoch: time.Second,
	})
	if !errors.As(err, &lost) {
		t.Fatalf("past failure: got %v, want DeviceLostError", err)
	}
}

func TestStragglerSlowsOnlyItsDevice(t *testing.T) {
	c, err := device.SingleServer(2)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	e := NewEngine(c, kernels.NewDefaultOracle(c))
	rng := rand.New(rand.NewSource(11))
	g, place := faultTestGraph(t, rng, 2)

	clean, err := e.Run(g, place, Config{DisableMemoryCheck: true})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	plan := &FaultPlan{Faults: []FaultSpec{
		{Kind: kindStraggler, AtNs: 0, Device: 1, Factor: 4},
	}}
	slow, err := e.Run(g, place, Config{DisableMemoryCheck: true, Faults: plan})
	if err != nil {
		t.Fatalf("straggler run: %v", err)
	}
	checkResultInvariants(t, g, place, slow)
	if slow.ComputeBusy[1] <= clean.ComputeBusy[1] {
		t.Fatalf("straggler device busy %v, clean %v: no slowdown",
			slow.ComputeBusy[1], clean.ComputeBusy[1])
	}
	if slow.ComputeBusy[1] < 3*clean.ComputeBusy[1] {
		t.Fatalf("straggler device busy %v, clean %v: slowdown below factor",
			slow.ComputeBusy[1], clean.ComputeBusy[1])
	}
	if slow.ComputeBusy[0] != clean.ComputeBusy[0] {
		t.Fatalf("healthy device changed: %v vs %v", slow.ComputeBusy[0], clean.ComputeBusy[0])
	}
	if len(slow.Faults) != 1 || slow.Faults[0].Kind != runtime.FaultStraggler {
		t.Fatalf("faults reported: %+v, want one straggler", slow.Faults)
	}
}

func TestLinkDegradeSlowsTransfers(t *testing.T) {
	c, err := device.SingleServer(2)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	e := NewEngine(c, kernels.NewDefaultOracle(c))
	// Two ops on device 0 feeding one on device 1: all traffic rides 0->1.
	g := graph.New()
	a := g.MustAddOp(&graph.Op{Name: "a", Kind: graph.KindMatMul, FLOPs: 1e8, OutputBytes: 8 << 20, Batch: 4})
	b := g.MustAddOp(&graph.Op{Name: "b", Kind: graph.KindMatMul, FLOPs: 1e8, OutputBytes: 8 << 20, Batch: 4})
	sink := g.MustAddOp(&graph.Op{Name: "s", Kind: graph.KindAddN, FLOPs: 1e6, OutputBytes: 1 << 10, Batch: 4})
	g.MustConnect(a, sink, 8<<20)
	g.MustConnect(b, sink, 8<<20)
	place := []int{0, 0, 1}

	clean, err := e.Run(g, place, Config{DisableMemoryCheck: true})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	plan := &FaultPlan{Faults: []FaultSpec{
		{Kind: kindLinkDegrade, AtNs: 0, From: 0, To: 1, Factor: 8},
	}}
	slow, err := e.Run(g, place, Config{DisableMemoryCheck: true, Faults: plan})
	if err != nil {
		t.Fatalf("degraded run: %v", err)
	}
	if slow.MemcpyBusy[1] < 7*clean.MemcpyBusy[1] {
		t.Fatalf("memcpy busy %v vs clean %v: link degradation not applied",
			slow.MemcpyBusy[1], clean.MemcpyBusy[1])
	}
}

func TestExecutorReportsFaultsOnce(t *testing.T) {
	c, err := device.SingleServer(2)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	rng := rand.New(rand.NewSource(21))
	g, place := faultTestGraph(t, rng, 2)
	art := strategy.New(g, place, nil, nil, 0, strategy.Provenance{})

	plan := &FaultPlan{Faults: []FaultSpec{
		{Kind: kindStraggler, AtNs: 1, Device: 0, Factor: 2},
	}}
	x := DefaultExecutor(c)
	if err := x.SetPlan(plan); err != nil {
		t.Fatalf("SetPlan: %v", err)
	}
	cfg := runtime.Config{}
	first, err := x.Run(g, art, cfg)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	if len(first.Faults) != 1 {
		t.Fatalf("run 1 surfaced %d faults, want 1", len(first.Faults))
	}
	second, err := x.Run(g, art, cfg)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if len(second.Faults) != 0 {
		t.Fatalf("run 2 re-surfaced %d faults, want 0", len(second.Faults))
	}
	if x.Epoch() != first.Makespan+second.Makespan {
		t.Fatalf("epoch %v, want %v", x.Epoch(), first.Makespan+second.Makespan)
	}
}

func TestExecutorShrinkCarriesSchedule(t *testing.T) {
	c, err := device.SingleServer(4)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	plan := &FaultPlan{Faults: []FaultSpec{
		{Kind: kindDeviceFailure, AtNs: 1, Device: 1},
		{Kind: kindStraggler, AtNs: 2, Device: 3, Factor: 2},
		{Kind: kindLinkDegrade, AtNs: 3, From: 1, To: 2, Factor: 2},
		{Kind: kindLinkDegrade, AtNs: 4, From: 2, To: 3, Factor: 2},
	}}
	x := DefaultExecutor(c)
	if err := x.SetPlan(plan); err != nil {
		t.Fatalf("SetPlan: %v", err)
	}
	x.Advance(10 * time.Second)

	shrunkExec, shrunk, err := x.Shrink(1)
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if shrunk.NumDevices() != 3 {
		t.Fatalf("shrunk cluster has %d devices, want 3", shrunk.NumDevices())
	}
	nx, ok := shrunkExec.(*Executor)
	if !ok {
		t.Fatalf("shrunk executor is %T", shrunkExec)
	}
	if nx.Epoch() != 10*time.Second {
		t.Fatalf("epoch lost in shrink: %v", nx.Epoch())
	}
	// The dead device's failure and its link fault are gone; the straggler
	// on old device 3 and the 2->3 link fault remain, renumbered down.
	faults := nx.Plan().Faults
	if len(faults) != 2 {
		t.Fatalf("surviving faults: %+v, want 2", faults)
	}
	if faults[0].Kind != kindStraggler || faults[0].Device != 2 {
		t.Fatalf("straggler not renumbered: %+v", faults[0])
	}
	if faults[1].Kind != kindLinkDegrade || faults[1].From != 1 || faults[1].To != 2 {
		t.Fatalf("link fault not renumbered: %+v", faults[1])
	}
	// Survivors keep their names.
	if shrunk.Device(1).Name != c.Device(2).Name {
		t.Fatalf("survivor renumbering broke names: %q vs %q",
			shrunk.Device(1).Name, c.Device(2).Name)
	}
}

func TestClusterWithout(t *testing.T) {
	c, err := device.NewCluster(2, 2)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	next, mapping, err := c.Without(1)
	if err != nil {
		t.Fatalf("Without: %v", err)
	}
	if next.NumDevices() != 3 {
		t.Fatalf("%d devices, want 3", next.NumDevices())
	}
	wantMap := []int{0, -1, 1, 2}
	for i, m := range mapping {
		if m != wantMap[i] {
			t.Fatalf("mapping %v, want %v", mapping, wantMap)
		}
	}
	// Links between survivors are preserved: old 2->3 (same server) is new
	// 1->2 and must stay the intra-server link.
	if got, want := next.Link(1, 2), c.Link(2, 3); got != want {
		t.Fatalf("link 1->2 = %+v, want %+v", got, want)
	}
	if got, want := next.Link(0, 1), c.Link(0, 2); got != want {
		t.Fatalf("link 0->1 = %+v, want %+v", got, want)
	}
	if _, _, err := c.Without(9); err == nil {
		t.Fatal("out-of-range removal accepted")
	}
	single, _ := device.SingleServer(1)
	if _, _, err := single.Without(0); !errors.Is(err, device.ErrNoDevices) {
		t.Fatalf("emptying removal: got %v, want ErrNoDevices", err)
	}
}
