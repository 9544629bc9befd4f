package device

import (
	"errors"
	"testing"
)

func TestNewClusterShape(t *testing.T) {
	c, err := NewCluster(2, 4)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if c.NumDevices() != 8 {
		t.Errorf("NumDevices = %d, want 8", c.NumDevices())
	}
	if c.Servers() != 2 {
		t.Errorf("Servers = %d, want 2", c.Servers())
	}
	if got := c.Device(5).Server; got != 1 {
		t.Errorf("device 5 server = %d, want 1", got)
	}
	if got := c.Device(3).Server; got != 0 {
		t.Errorf("device 3 server = %d, want 0", got)
	}
}

func TestNewClusterRejectsEmpty(t *testing.T) {
	for _, tc := range [][2]int{{0, 4}, {1, 0}, {0, 0}} {
		if _, err := NewCluster(tc[0], tc[1]); !errors.Is(err, ErrNoDevices) {
			t.Errorf("NewCluster(%d,%d) err = %v, want ErrNoDevices", tc[0], tc[1], err)
		}
	}
}

func TestLinkSelection(t *testing.T) {
	c, err := NewCluster(2, 2)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	intra := c.Link(0, 1)
	inter := c.Link(0, 2)
	if intra.Bandwidth <= inter.Bandwidth {
		t.Errorf("intra bandwidth %g should exceed inter bandwidth %g",
			intra.Bandwidth, inter.Bandwidth)
	}
	if intra.Latency >= inter.Latency {
		t.Errorf("intra latency %g should be below inter latency %g",
			intra.Latency, inter.Latency)
	}
}

func TestSlowestLinkMultiServer(t *testing.T) {
	c, err := NewCluster(2, 2)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	slowest := c.SlowestLink()
	if slowest.Bandwidth != c.Link(0, 2).Bandwidth {
		t.Errorf("slowest link bandwidth = %g, want the inter-server link %g",
			slowest.Bandwidth, c.Link(0, 2).Bandwidth)
	}
}

func TestSlowestLinkSingleDevice(t *testing.T) {
	c, err := SingleServer(1)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	if l := c.SlowestLink(); l.Bandwidth != 0 {
		t.Errorf("single-device slowest link = %+v, want zero", l)
	}
}

func TestTotalMemory(t *testing.T) {
	c, err := NewHeterogeneous(&Spec{
		Servers: []SpecServer{{GPUs: []string{"small", "small", "small", "small"}}},
		Classes: map[string]SpecClass{"small": {MemoryBytes: 2 * GiB, PeakFLOPS: 1e12, MemBandwidthBps: 1e11}},
	})
	if err != nil {
		t.Fatalf("NewHeterogeneous: %v", err)
	}
	if got := c.TotalMemory(); got != 8*GiB {
		t.Errorf("TotalMemory = %d, want %d", got, 8*GiB)
	}
}

func TestDeviceNames(t *testing.T) {
	c, err := NewCluster(2, 2)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	want := []string{"server0/gpu0", "server0/gpu1", "server1/gpu0", "server1/gpu1"}
	for i, w := range want {
		if got := c.Device(i).Name; got != w {
			t.Errorf("device %d name = %q, want %q", i, got, w)
		}
	}
}
