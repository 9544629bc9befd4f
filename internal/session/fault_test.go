package session

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"fastt/internal/core"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/models"
	"fastt/internal/runtime"
	"fastt/internal/sim"
	"fastt/internal/strategy"
)

func cluster4(t *testing.T) *device.Cluster {
	t.Helper()
	c, err := device.SingleServer(4)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	return c
}

// bootFaultSession bootstraps a session over a fault-capable executor with
// no plan armed yet: fault times are absolute on the training timeline, so
// plans are installed after bootstrap against the known post-bootstrap epoch.
func bootFaultSession(t *testing.T, c *device.Cluster, g *graph.Graph, cfg Config) (*Session, *sim.Executor) {
	t.Helper()
	exec := sim.DefaultExecutor(c)
	s, err := New(c, exec, g, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Bootstrap(); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	return s, exec
}

func TestDeviceLossRecovery(t *testing.T) {
	c := cluster4(t)
	g := dpTrainGraph(t, 4, 64)
	s, exec := bootFaultSession(t, c, g, Config{Seed: 3, MaxRounds: 2})

	iter := s.curMeasured
	if iter <= 0 {
		t.Fatal("no measured iteration time after bootstrap")
	}
	// Kill device 2 a few iterations into the run.
	failAt := exec.Epoch() + 3*iter + iter/2
	plan := &sim.FaultPlan{Faults: []sim.FaultSpec{
		{Kind: "device-failure", AtNs: int64(failAt), Device: 2},
	}}
	if err := exec.SetPlan(plan); err != nil {
		t.Fatalf("SetPlan: %v", err)
	}

	stats, err := s.Run(10)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.DeviceLosses != 1 {
		t.Fatalf("DeviceLosses = %d, want 1", stats.DeviceLosses)
	}
	if s.Cluster().NumDevices() != 3 {
		t.Fatalf("cluster has %d devices after recovery, want 3", s.Cluster().NumDevices())
	}
	for op, dev := range s.ActivePlacement() {
		if dev < 0 || dev >= 3 {
			t.Fatalf("op %d placed on device %d after recovery", op, dev)
		}
	}
	if stats.RecoveryTime <= 0 {
		t.Error("no recovery time charged")
	}
	if stats.Degraded == "" && stats.Recomputed == 0 {
		t.Error("recovery neither recomputed nor degraded")
	}
	// The recomputed artifact must validate against the shrunk cluster.
	if err := s.ActiveArtifact().Validate(s.base, s.Cluster()); err != nil {
		t.Fatalf("post-recovery artifact does not validate: %v", err)
	}
	// A later run proceeds on the shrunk cluster without incident.
	again, err := s.Run(4)
	if err != nil {
		t.Fatalf("post-recovery Run: %v", err)
	}
	if again.DeviceLosses != 0 {
		t.Fatalf("dead device failed again: %d losses", again.DeviceLosses)
	}
}

// TestRunReportsFaultsSurfacedWhileProfiling: a straggler that activates
// in the iteration a device failure aborts first surfaces while recovery
// profiles the recomputed strategy, and must still reach the Run's
// FaultEvents.
func TestRunReportsFaultsSurfacedWhileProfiling(t *testing.T) {
	c := cluster4(t)
	g := dpTrainGraph(t, 4, 64)
	s, exec := bootFaultSession(t, c, g, Config{Seed: 3, MaxRounds: 2})
	iter := s.curMeasured
	base := exec.Epoch()
	plan := &sim.FaultPlan{Faults: []sim.FaultSpec{
		{Kind: "straggler", AtNs: int64(base + iter/4), Device: 0, Factor: 3},
		{Kind: "device-failure", AtNs: int64(base + iter/2), Device: 1},
	}}
	if err := exec.SetPlan(plan); err != nil {
		t.Fatalf("SetPlan: %v", err)
	}
	stats, err := s.Run(5)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.DeviceLosses != 1 {
		t.Fatalf("DeviceLosses = %d, want 1", stats.DeviceLosses)
	}
	want := runtime.FaultEvent{Kind: runtime.FaultStraggler, At: base + iter/4, Device: 0, Factor: 3}
	if len(stats.FaultEvents) != 1 || stats.FaultEvents[0] != want {
		t.Fatalf("FaultEvents = %v, want [%v]", stats.FaultEvents, want)
	}
}

func TestFaultStormDegradesInsteadOfErroring(t *testing.T) {
	c := cluster4(t)
	g := dpTrainGraph(t, 4, 64)
	s, exec := bootFaultSession(t, c, g, Config{
		Seed: 5, MaxRounds: 2, MaxFaultRetries: 1,
	})
	iter := s.curMeasured
	base := exec.Epoch()
	// Three device failures in quick succession: the first is inside the
	// retry budget, the rest exhaust it and must degrade, not error.
	plan := &sim.FaultPlan{Faults: []sim.FaultSpec{
		{Kind: "device-failure", AtNs: int64(base + 2*iter), Device: 3},
		{Kind: "device-failure", AtNs: int64(base + 40*iter), Device: 0},
		{Kind: "device-failure", AtNs: int64(base + 80*iter), Device: 1},
	}}
	if err := exec.SetPlan(plan); err != nil {
		t.Fatalf("SetPlan: %v", err)
	}
	stats, err := s.Run(60)
	if err != nil {
		t.Fatalf("Run under fault storm: %v", err)
	}
	if stats.DeviceLosses < 2 {
		t.Fatalf("DeviceLosses = %d, want >= 2", stats.DeviceLosses)
	}
	if stats.DeviceLosses > 1 && stats.Degraded == "" {
		t.Error("retry budget exhausted but no degradation recorded")
	}
	if n := s.Cluster().NumDevices(); n != 4-stats.DeviceLosses {
		t.Errorf("cluster has %d devices after %d losses", n, stats.DeviceLosses)
	}
	for op, dev := range s.ActivePlacement() {
		if dev < 0 || dev >= s.Cluster().NumDevices() {
			t.Fatalf("op %d placed on device %d of %d", op, dev, s.Cluster().NumDevices())
		}
	}
}

// TestFaultDeterminismAcrossWorkers is the reproducibility guarantee for
// fault runs: the same fault-plan seed yields byte-identical fault event
// sequences and identical post-recovery strategy artifacts no matter how
// many strategy-calculator workers run. It intentionally runs in -short mode
// so the race-enabled tier exercises it.
func TestFaultDeterminismAcrossWorkers(t *testing.T) {
	type outcome struct {
		events   []byte
		artifact []byte
		epoch    time.Duration
		losses   int
	}
	runWith := func(workers int) outcome {
		c := cluster4(t)
		g := dpTrainGraph(t, 4, 32)
		s, exec := bootFaultSession(t, c, g, Config{
			Seed: 9, MaxRounds: 2,
			Sched: core.Options{Workers: workers},
		})
		iter := s.curMeasured
		base := exec.Epoch()
		plan := &sim.FaultPlan{Seed: 1234, Faults: []sim.FaultSpec{
			{Kind: "straggler", AtNs: int64(base + iter), Device: 1, Factor: 2.5},
			{Kind: "link-degrade", AtNs: int64(base + 2*iter), From: 0, To: 3, Factor: 3},
			{Kind: "device-failure", AtNs: int64(base + 4*iter), Device: 2},
		}}
		if err := exec.SetPlan(plan); err != nil {
			t.Fatalf("workers=%d: SetPlan: %v", workers, err)
		}
		stats, err := s.Run(12)
		if err != nil {
			t.Fatalf("workers=%d: Run: %v", workers, err)
		}
		events, err := json.Marshal(stats.FaultEvents)
		if err != nil {
			t.Fatalf("marshal events: %v", err)
		}
		var art bytes.Buffer
		if err := s.ActiveArtifact().WriteJSON(&art); err != nil {
			t.Fatalf("marshal artifact: %v", err)
		}
		return outcome{
			events:   events,
			artifact: art.Bytes(),
			epoch:    exec.Epoch(),
			losses:   stats.DeviceLosses,
		}
	}

	ref := runWith(1)
	if ref.losses != 1 {
		t.Fatalf("reference run lost %d devices, want 1", ref.losses)
	}
	for _, workers := range []int{4, 8} {
		got := runWith(workers)
		if !bytes.Equal(got.events, ref.events) {
			t.Errorf("workers=%d fault events differ:\n%s\nvs\n%s", workers, got.events, ref.events)
		}
		if !bytes.Equal(got.artifact, ref.artifact) {
			t.Errorf("workers=%d post-recovery artifact differs", workers)
		}
		if got.epoch != ref.epoch {
			t.Errorf("workers=%d timeline epoch %v, ref %v", workers, got.epoch, ref.epoch)
		}
		if got.losses != ref.losses {
			t.Errorf("workers=%d lost %d devices, ref %d", workers, got.losses, ref.losses)
		}
	}
}

// TestRecoveryTimeChargedOnDriftRecompute is the regression test for the
// drift path's timeline accounting: a drift-triggered recompute implies a
// checkpoint/restart cycle plus off-path candidate profiling, which must be
// charged to RunStats.RecoveryTime rather than silently dropped.
func TestRecoveryTimeChargedOnDriftRecompute(t *testing.T) {
	cluster := cluster2(t)
	model, err := models.InceptionV3(32)
	if err != nil {
		t.Fatalf("InceptionV3: %v", err)
	}
	train, err := graph.BuildDataParallel(model, 2)
	if err != nil {
		t.Fatalf("BuildDataParallel: %v", err)
	}
	s, err := New(cluster, simExec(cluster), train, Config{
		Seed:           11,
		ReprofileEvery: 4,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Bootstrap(); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if _, err := s.Run(8); err != nil {
		t.Fatalf("healthy Run: %v", err)
	}

	// One GPU loses two thirds of its throughput: the periodic profiler
	// must notice, recompute, and charge the activation to RecoveryTime.
	cluster.Device(1).PeakFLOPS /= 3
	cluster.Device(1).MemBandwidth /= 3
	stats, err := s.Run(16)
	if err != nil {
		t.Fatalf("throttled Run: %v", err)
	}
	if stats.Recomputed == 0 {
		t.Skip("drift did not trigger an activation on this seed; accounting not exercised")
	}
	if stats.RecoveryTime <= 0 {
		t.Fatalf("Recomputed = %d but RecoveryTime = %v; drift recompute charged no time",
			stats.Recomputed, stats.RecoveryTime)
	}
	if stats.RecoveryTime < s.restartCost() {
		t.Errorf("RecoveryTime %v below one restart cost %v", stats.RecoveryTime, s.restartCost())
	}
}

// TestNonDegradableExecutorSurfacesDeviceLoss pins the behaviour for
// backends that cannot shrink: the DeviceLostError propagates instead of
// entering recovery.
func TestNonDegradableExecutorSurfacesDeviceLoss(t *testing.T) {
	c := cluster2(t)
	g := dpTrainGraph(t, 2, 64)
	s, err := New(c, failingExec{inner: simExec(c)}, g, Config{Seed: 2, MaxRounds: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Bootstrap(); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	failingAfter = 2
	defer func() { failingAfter = -1 }()
	_, err = s.Run(8)
	if asDeviceLost(err) == nil {
		t.Fatalf("got %v, want DeviceLostError", err)
	}
}

// failingExec wraps an executor and fails a device after a countdown; it
// deliberately does not implement runtime.DegradableExecutor.
type failingExec struct{ inner runtime.Executor }

var failingAfter = -1

func (f failingExec) Run(g *graph.Graph, art *strategy.Artifact, cfg runtime.Config) (*runtime.Result, error) {
	if failingAfter == 0 {
		return nil, &runtime.DeviceLostError{Device: 0, At: time.Second}
	}
	if failingAfter > 0 {
		failingAfter--
	}
	return f.inner.Run(g, art, cfg)
}
