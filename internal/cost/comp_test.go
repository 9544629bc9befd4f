package cost

import (
	"testing"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
)

func twoGPUs(t *testing.T) *device.Cluster {
	t.Helper()
	c, err := device.SingleServer(2)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	return c
}

func TestCompModelObserveLookup(t *testing.T) {
	m := NewCompModelFor(twoGPUs(t))
	m.Observe("conv1", 0, 10*time.Millisecond)
	m.Observe("conv1", 0, 20*time.Millisecond)
	got, ok := m.Lookup("conv1", 0)
	if !ok {
		t.Fatal("Lookup missed after Observe")
	}
	if got != 15*time.Millisecond {
		t.Errorf("Lookup mean = %v, want 15ms", got)
	}
	if _, ok := m.Lookup("conv1", 1); ok {
		t.Error("Lookup hit for unobserved device")
	}
	if _, ok := m.Lookup("conv2", 0); ok {
		t.Error("Lookup hit for unobserved op")
	}
}

func TestCompModelMissingReadsZero(t *testing.T) {
	c := twoGPUs(t)
	m := NewModel(c)
	op := &graph.Op{Name: "never_seen", Kind: graph.KindConv2D}
	if got := m.Exec(op, c.Device(0)); got != 0 {
		t.Errorf("Exec of unobserved op = %v, want 0 (explore)", got)
	}
}

// TestCompModelCrossDeviceFallback: on a single-class cluster a profile
// taken on one device answers for the others.
func TestCompModelCrossDeviceFallback(t *testing.T) {
	c := twoGPUs(t)
	m := NewModel(c)
	m.Comp.Observe("conv1", 0, 10*time.Millisecond)
	op := &graph.Op{Name: "conv1", Kind: graph.KindConv2D}
	if got := m.Exec(op, c.Device(1)); got != 10*time.Millisecond {
		t.Errorf("cross-device Exec = %v, want 10ms", got)
	}
}

func TestCompModelSplitScalingFallback(t *testing.T) {
	c := twoGPUs(t)
	m := NewModel(c)
	m.Comp.Observe("conv1", 0, 100*time.Millisecond)
	sub := &graph.Op{
		Name: "conv1/part0_of4", Kind: graph.KindConv2D,
		SplitOf: "conv1", SplitN: 4,
	}
	got := m.Exec(sub, c.Device(1))
	// Sublinear scaling: strictly more than 1/4 of the parent, strictly
	// less than the whole parent.
	if got <= 25*time.Millisecond || got >= 100*time.Millisecond {
		t.Errorf("split-scaled Exec = %v, want in (25ms, 100ms)", got)
	}
}

func TestCompModelExactKeyBeatsFallbacks(t *testing.T) {
	c := twoGPUs(t)
	m := NewModel(c)
	m.Comp.Observe("conv1", 0, 10*time.Millisecond)
	m.Comp.Observe("conv1", 1, 30*time.Millisecond)
	op := &graph.Op{Name: "conv1", Kind: graph.KindConv2D}
	if got := m.Exec(op, c.Device(1)); got != 30*time.Millisecond {
		t.Errorf("Exec = %v, want exact key 30ms", got)
	}
}

func TestCompModelStable(t *testing.T) {
	m := NewCompModelFor(twoGPUs(t))
	if m.Stable(2, 0.1) {
		t.Error("empty model reported stable")
	}
	m.Observe("a", 0, 10*time.Millisecond)
	if m.Stable(2, 0.1) {
		t.Error("single-sample model reported stable")
	}
	m.Observe("a", 0, 10*time.Millisecond)
	if !m.Stable(2, 0.1) {
		t.Error("identical samples not reported stable")
	}
	// A wildly varying key breaks stability.
	m.Observe("b", 0, 1*time.Millisecond)
	m.Observe("b", 0, 100*time.Millisecond)
	if m.Stable(2, 0.1) {
		t.Error("high-variance model reported stable")
	}
}

func TestCompModelCoverage(t *testing.T) {
	g := graph.New()
	a := g.MustAddOp(&graph.Op{Name: "a", Kind: graph.KindRelu})
	b := g.MustAddOp(&graph.Op{Name: "b", Kind: graph.KindRelu})
	g.MustConnect(a, b, 1)
	m := NewCompModelFor(twoGPUs(t))
	if got := m.Coverage(g); got != 0 {
		t.Errorf("empty coverage = %v, want 0", got)
	}
	m.Observe("a", 0, time.Millisecond)
	if got := m.Coverage(g); got != 0.5 {
		t.Errorf("coverage = %v, want 0.5", got)
	}
	m.Observe("b", 1, time.Millisecond)
	if got := m.Coverage(g); got != 1 {
		t.Errorf("coverage = %v, want 1", got)
	}
}

func TestRunningStatWelford(t *testing.T) {
	var s runningStat
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.add(x)
	}
	if s.mean != 5 {
		t.Errorf("mean = %v, want 5", s.mean)
	}
	// Sample variance of this classic dataset is 32/7.
	if got, want := s.variance(), 32.0/7.0; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("variance = %v, want %v", got, want)
	}
}
