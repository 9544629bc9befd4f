package kernels

import (
	"testing"
	"testing/quick"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
)

func testCluster(t *testing.T) *device.Cluster {
	t.Helper()
	c, err := device.NewCluster(2, 2)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

func TestExecMonotonicInFLOPs(t *testing.T) {
	c := testCluster(t)
	o := NewDefaultOracle(c)
	dev := c.Device(0)
	small := &graph.Op{Kind: graph.KindConv2D, FLOPs: 1e6, OutputBytes: 1024}
	large := &graph.Op{Kind: graph.KindConv2D, FLOPs: 1e9, OutputBytes: 1024}
	if o.Exec(small, dev) >= o.Exec(large, dev) {
		t.Errorf("exec time not monotonic: small=%v large=%v",
			o.Exec(small, dev), o.Exec(large, dev))
	}
}

func TestExecUtilizationCollapse(t *testing.T) {
	// Halving FLOPs must reduce the run time by strictly less than half
	// (excluding launch overhead): efficiency drops at small sizes.
	c := testCluster(t)
	o := NewDefaultOracle(c)
	dev := c.Device(0)
	full := &graph.Op{Kind: graph.KindConv2D, FLOPs: 8e9, OutputBytes: 1024}
	half := &graph.Op{Kind: graph.KindConv2D, FLOPs: 4e9, OutputBytes: 1024}
	launch := DefaultConfig().LaunchOverhead
	tf := o.Exec(full, dev) - launch
	th := o.Exec(half, dev) - launch
	if 2*th <= tf {
		t.Errorf("no utilization collapse: full=%v half=%v", tf, th)
	}
}

func TestExecBandwidthBound(t *testing.T) {
	// A huge elementwise op must be bound by memory bandwidth, not FLOPs.
	c := testCluster(t)
	o := NewDefaultOracle(c)
	dev := c.Device(0)
	op := &graph.Op{Kind: graph.KindRelu, FLOPs: 1e6, OutputBytes: 900e6 / 3}
	got := o.Exec(op, dev)
	// 3*OutputBytes / 900 GB/s = 1 ms.
	want := time.Millisecond
	if got < want || got > want+2*DefaultConfig().LaunchOverhead {
		t.Errorf("bandwidth-bound exec = %v, want ~%v", got, want)
	}
}

func TestExecZeroWorkIsLaunchOverhead(t *testing.T) {
	c := testCluster(t)
	o := NewDefaultOracle(c)
	op := &graph.Op{Kind: graph.KindIdentity}
	if got := o.Exec(op, c.Device(0)); got != DefaultConfig().LaunchOverhead {
		t.Errorf("zero-work exec = %v, want launch overhead", got)
	}
}

func TestCommSameDeviceFree(t *testing.T) {
	c := testCluster(t)
	o := NewDefaultOracle(c)
	if got := o.Comm(1<<20, c.Device(1), c.Device(1)); got != 0 {
		t.Errorf("same-device comm = %v, want 0", got)
	}
}

func TestCommInterServerSlower(t *testing.T) {
	c := testCluster(t)
	o := NewDefaultOracle(c)
	intra := o.Comm(1<<20, c.Device(0), c.Device(1))
	inter := o.Comm(1<<20, c.Device(0), c.Device(2))
	if intra >= inter {
		t.Errorf("intra comm %v should be faster than inter comm %v", intra, inter)
	}
}

func TestTransferTimeZeroLink(t *testing.T) {
	if got := TransferTime(1<<20, device.Link{}); got != 0 {
		t.Errorf("zero link transfer = %v, want 0", got)
	}
}

func TestTransferTimeLinear(t *testing.T) {
	l := device.Link{Bandwidth: 1e9, Latency: 1e-6}
	t1 := TransferTime(1e6, l)
	t2 := TransferTime(2e6, l)
	// t2 - t1 should be 1 MB / 1 GB/s = 1 ms (up to Duration rounding).
	diff := t2 - t1 - time.Millisecond
	if diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("transfer time not linear: t2-t1 = %v, want ~1ms", t2-t1)
	}
}

// TestSplitNeverFasterThanIdeal asserts the launch-overhead property the
// split heuristics rely on: n sub-ops of 1/n work each always cost at least
// the original time divided by n (run in parallel), and strictly more in
// total (run serially).
func TestSplitNeverFasterThanIdeal(t *testing.T) {
	c := testCluster(t)
	o := NewDefaultOracle(c)
	dev := c.Device(0)
	f := func(flopsRaw int64, n8 uint8) bool {
		n := int64(n8%7) + 2
		flops := flopsRaw % 1e12
		if flops < 0 {
			flops = -flops
		}
		whole := &graph.Op{Kind: graph.KindMatMul, FLOPs: flops, OutputBytes: 4096}
		part := &graph.Op{Kind: graph.KindMatMul, FLOPs: flops / n, OutputBytes: 4096 / n}
		tWhole := o.Exec(whole, dev)
		tPart := o.Exec(part, dev)
		// Parallel ideal: one partition is at least 1/n of the whole.
		return int64(tPart)*n >= int64(tWhole)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHigherPeakDeviceIsFaster(t *testing.T) {
	// Two classes that differ only in peak throughput.
	c, err := device.NewHeterogeneous(&device.Spec{
		Servers: []device.SpecServer{{GPUs: []string{"fast", "slow"}}},
		Classes: map[string]device.SpecClass{
			"fast": {MemoryBytes: 16 * device.GiB, PeakFLOPS: 20e12, MemBandwidthBps: 900e9},
			"slow": {MemoryBytes: 16 * device.GiB, PeakFLOPS: 5e12, MemBandwidthBps: 900e9},
		},
	})
	if err != nil {
		t.Fatalf("NewHeterogeneous: %v", err)
	}
	o := NewDefaultOracle(c)
	op := &graph.Op{Kind: graph.KindMatMul, FLOPs: 1e10, OutputBytes: 4096}
	if o.Exec(op, c.Device(0)) >= o.Exec(op, c.Device(1)) {
		t.Error("faster device did not yield faster exec time")
	}
}
