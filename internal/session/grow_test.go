package session

import (
	"bytes"
	"strings"
	"testing"

	"fastt/internal/core"
	"fastt/internal/device"
	"fastt/internal/runtime"
	"fastt/internal/sim"
)

// loseDevice arms a single device failure shortly after the current epoch and
// runs until the session has recovered onto the survivors.
func loseDevice(t *testing.T, s *Session, exec *sim.Executor, dev int) {
	t.Helper()
	iter := s.curMeasured
	plan := &sim.FaultPlan{Faults: []sim.FaultSpec{
		{Kind: "device-failure", AtNs: int64(exec.Epoch() + 3*iter + iter/2), Device: dev},
	}}
	if err := exec.SetPlan(plan); err != nil {
		t.Fatalf("SetPlan: %v", err)
	}
	stats, err := s.Run(8)
	if err != nil {
		t.Fatalf("Run under device loss: %v", err)
	}
	if stats.DeviceLosses != 1 {
		t.Fatalf("DeviceLosses = %d, want 1", stats.DeviceLosses)
	}
}

// TestGrowRecomputesAndResumes exercises the full elastic loop: a device
// dies, the session degrades to the survivors, a replacement of a different
// class joins, and the session recomputes onto the restored mixed-class
// cluster and resumes under the recomputed strategy.
func TestGrowRecomputesAndResumes(t *testing.T) {
	c := cluster4(t)
	g := dpTrainGraph(t, 4, 64)
	s, exec := bootFaultSession(t, c, g, Config{Seed: 3, MaxRounds: 2})

	loseDevice(t, s, exec, 2)
	if s.Cluster().NumDevices() != 3 {
		t.Fatalf("cluster has %d devices after loss, want 3", s.Cluster().NumDevices())
	}
	degraded := s.curMeasured

	// A replacement A100 joins the server over NVLink: strictly more capable
	// than the dead V100, so the recompute should beat the degraded strategy
	// and activate.
	rep, err := s.Grow(device.JoinSpec{Class: device.ClassA100, Server: 0})
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if rep.Devices != 4 {
		t.Fatalf("Devices = %d after join, want 4", rep.Devices)
	}
	if rep.Device != 3 {
		t.Fatalf("joined device ID = %d, want 3 (next free)", rep.Device)
	}
	if rep.Class != device.ClassA100 {
		t.Fatalf("joined class = %q, want %q", rep.Class, device.ClassA100)
	}
	if s.Cluster().NumDevices() != 4 {
		t.Fatalf("cluster has %d devices after join, want 4", s.Cluster().NumDevices())
	}
	if !rep.Recomputed {
		t.Fatal("join did not activate a recomputed strategy")
	}
	if rep.Measured >= degraded {
		t.Fatalf("recomputed strategy measures %v, no better than degraded %v", rep.Measured, degraded)
	}
	if rep.RecoveryTime <= 0 {
		t.Error("no recovery time charged for the join's checkpoint/restart cycle")
	}
	for op, dev := range s.ActivePlacement() {
		if dev < 0 || dev >= 4 {
			t.Fatalf("op %d placed on device %d after join", op, dev)
		}
	}
	// The recomputed artifact must validate against the grown, classed
	// cluster and record the mixed shape in its provenance.
	art := s.ActiveArtifact()
	if err := art.Validate(s.base, s.Cluster()); err != nil {
		t.Fatalf("post-join artifact does not validate: %v", err)
	}
	if !strings.Contains(art.Provenance.Cluster.Classes, device.ClassA100) {
		t.Errorf("provenance classes %q does not mention the joined %s",
			art.Provenance.Cluster.Classes, device.ClassA100)
	}
	// Training resumes on the restored cluster without incident.
	stats, err := s.Run(6)
	if err != nil {
		t.Fatalf("post-join Run: %v", err)
	}
	if stats.DeviceLosses != 0 {
		t.Fatalf("post-join run lost %d devices", stats.DeviceLosses)
	}
}

// TestGrowNeverSlowsTraining is the regression test for the join's floor
// guarantee: a weak joiner behind a slow cross-server link must not drag the
// session below the strategy it already has — the recompute either beats the
// running strategy or is discarded.
func TestGrowNeverSlowsTraining(t *testing.T) {
	c := cluster4(t)
	g := dpTrainGraph(t, 4, 64)
	s, _ := bootFaultSession(t, c, g, Config{Seed: 3, MaxRounds: 2})
	before := s.curMeasured

	rep, err := s.Grow(device.JoinSpec{Class: device.ClassT4, Server: device.NewServer})
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}
	stats, err := s.Run(6)
	if err != nil {
		t.Fatalf("post-join Run: %v", err)
	}
	// Allow jitter headroom; without the floor guard the T4 join regresses
	// iteration time by integer factors, not percent.
	if limit := before + before/4; stats.AvgIter > limit {
		t.Fatalf("post-join AvgIter %v exceeds pre-join %v (recomputed=%v); join slowed training",
			stats.AvgIter, before, rep.Recomputed)
	}
	// Only an activated recompute carries the grown shape in provenance; a
	// kept pre-join strategy is still runnable but records the old shape.
	if rep.Recomputed {
		if err := s.ActiveArtifact().Validate(s.base, s.Cluster()); err != nil {
			t.Fatalf("recomputed artifact does not validate on grown cluster: %v", err)
		}
	}
}

func TestGrowRequiresGrowableExecutor(t *testing.T) {
	c := cluster2(t)
	g := dpTrainGraph(t, 2, 64)
	s, err := New(c, runOnly{simExec(c)}, g, Config{Seed: 2, MaxRounds: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Bootstrap(); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if _, err := s.Grow(device.JoinSpec{}); err == nil {
		t.Fatal("Grow on a non-growable executor did not error")
	}
}

// runOnly hides every method of its executor but Run, like a backend that
// can neither shrink nor grow.
type runOnly struct{ runtime.Executor }

// TestGrowDeterminismAcrossWorkers is the elastic half of the reproducibility
// guarantee: the same loss-then-join sequence produces byte-identical
// recomputed artifacts no matter how many strategy-calculator workers run.
// Runs in -short mode so the race-enabled tier exercises it.
func TestGrowDeterminismAcrossWorkers(t *testing.T) {
	runWith := func(workers int) []byte {
		c := cluster4(t)
		g := dpTrainGraph(t, 4, 32)
		s, exec := bootFaultSession(t, c, g, Config{
			Seed: 9, MaxRounds: 2,
			Sched: core.Options{Workers: workers},
		})
		loseDevice(t, s, exec, 1)
		rep, err := s.Grow(device.JoinSpec{Class: device.ClassA100, Server: 0})
		if err != nil {
			t.Fatalf("workers=%d: Grow: %v", workers, err)
		}
		if !rep.Recomputed {
			t.Fatalf("workers=%d: join did not recompute", workers)
		}
		var art bytes.Buffer
		if err := s.ActiveArtifact().WriteJSON(&art); err != nil {
			t.Fatalf("marshal artifact: %v", err)
		}
		return art.Bytes()
	}

	ref := runWith(1)
	for _, workers := range []int{4, 8} {
		if got := runWith(workers); !bytes.Equal(got, ref) {
			t.Errorf("workers=%d post-join artifact differs from workers=1", workers)
		}
	}
}

// TestGrowBeforeBootstrap: before Bootstrap there is no running strategy to
// restore, price or seed from, so Grow must fail as Run does, before it
// grows the executor or touches the cluster.
func TestGrowBeforeBootstrap(t *testing.T) {
	c := cluster4(t)
	exec := sim.DefaultExecutor(c)
	s, err := New(c, exec, dpTrainGraph(t, 4, 64), Config{Seed: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, runErr := s.Run(1)
	if runErr == nil {
		t.Fatal("Run before Bootstrap did not error")
	}
	rep, err := s.Grow(device.JoinSpec{Class: device.ClassA100, Server: 0})
	if err == nil || err.Error() != runErr.Error() {
		t.Fatalf("Grow before Bootstrap: err = %v, want Run's %q", err, runErr)
	}
	if rep != nil {
		t.Errorf("Grow before Bootstrap reported %+v", rep)
	}
	if s.Cluster() != c || s.exec != runtime.Executor(exec) || c.NumDevices() != 4 {
		t.Errorf("Grow before Bootstrap changed the cluster or executor")
	}
}
