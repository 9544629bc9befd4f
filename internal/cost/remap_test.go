package cost

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
)

func TestRemapDevicesDropsDeadAndRenumbers(t *testing.T) {
	c, err := device.SingleServer(3)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	m := NewModel(c)
	m.Comp.Observe("conv", 0, 10*time.Millisecond)
	m.Comp.Observe("conv", 1, 20*time.Millisecond)
	m.Comp.Observe("conv", 2, 40*time.Millisecond)
	m.Link.Observe(0, 1, 1<<20, time.Millisecond)
	m.Link.Observe(0, 2, 1<<20, 2*time.Millisecond)
	m.Link.Observe(1, 2, 1<<20, 3*time.Millisecond)

	shrunk, mapping, err := c.Without(1)
	if err != nil {
		t.Fatalf("Without: %v", err)
	}
	next := m.RemapDevices(shrunk, mapping)

	// Device 0 keeps its entry; old device 2 is now device 1; old device 1
	// is gone.
	if got, ok := next.Comp.Lookup("conv", 0); !ok || got != 10*time.Millisecond {
		t.Fatalf("device 0 entry = %v, %v", got, ok)
	}
	if got, ok := next.Comp.Lookup("conv", 1); !ok || got != 40*time.Millisecond {
		t.Fatalf("renumbered device entry = %v, %v", got, ok)
	}
	if _, ok := next.Comp.Lookup("conv", 2); ok {
		t.Fatal("dead device's entry survived the remap")
	}
	// The any-device aggregate excludes the dead device's observation:
	// mean of 10ms and 40ms.
	op := &graph.Op{Name: "conv"}
	if got := next.Exec(op, &device.Device{ID: 7}); got != 25*time.Millisecond {
		t.Fatalf("byName fallback = %v, want 25ms", got)
	}

	// Only the surviving pair remains, renumbered 0->1 (was 0->2).
	if next.Link.NumPairs() != 1 {
		t.Fatalf("%d pairs survive, want 1", next.Link.NumPairs())
	}
	if _, ok := next.Link.Pair(0, 1); !ok {
		t.Fatal("surviving pair 0->2 not renumbered to 0->1")
	}
	if pred := next.Comm(1<<20, shrunk.Device(0), shrunk.Device(1)); pred != 2*time.Millisecond {
		t.Fatalf("remapped pair predicts %v, want 2ms", pred)
	}
}

func TestRemapDevicesEmptyModel(t *testing.T) {
	c, err := device.SingleServer(2)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	m := NewModel(c)
	shrunk, mapping, err := c.Without(0)
	if err != nil {
		t.Fatalf("Without: %v", err)
	}
	next := m.RemapDevices(shrunk, mapping)
	if next.Comp.NumEntries() != 0 || next.Link.NumPairs() != 0 {
		t.Fatal("empty model grew entries in remap")
	}
}

// TestRemapDevicesDeterministic remaps one model twenty times and requires
// bit-identical pooled aggregates and WriteJSON bytes every time: the
// surviving entries merge into the per-name, per-class and link-class
// aggregates in key order, not in map order.
func TestRemapDevicesDeterministic(t *testing.T) {
	c, err := device.SingleServer(8)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	m := NewModel(c)
	for i := 0; i < 200; i++ {
		name := []string{"conv", "fc", "relu", "pool"}[i%4]
		m.Comp.Observe(name, i/4%8, time.Duration(1000003*(i+1)%7919+1)*time.Microsecond/7)
		if from, to := i%8, (i*5+3)%8; from != to {
			m.Link.Observe(from, to, int64(i+1)*4099, time.Duration(i*i%997+1)*time.Microsecond/3)
		}
	}
	shrunk, mapping, err := c.Without(3)
	if err != nil {
		t.Fatalf("Without: %v", err)
	}
	first := m.RemapDevices(shrunk, mapping)
	var want bytes.Buffer
	if err := first.WriteJSON(&want); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	for i := 0; i < 20; i++ {
		next := m.RemapDevices(shrunk, mapping)
		if !reflect.DeepEqual(next.Comp.byName, first.Comp.byName) ||
			!reflect.DeepEqual(next.Comp.byClass, first.Comp.byClass) ||
			next.Link.classes != first.Link.classes {
			t.Fatalf("remap %d pooled different aggregates", i)
		}
		var got bytes.Buffer
		if err := next.WriteJSON(&got); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("remap %d wrote different bytes", i)
		}
	}
}
