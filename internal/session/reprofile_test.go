package session

import (
	"context"
	"testing"
	"time"

	"fastt/internal/core"
	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
)

func TestRunPeriodicReprofilingCounts(t *testing.T) {
	c := cluster2(t)
	g := dpTrainGraph(t, 2, 64)
	s, err := New(c, simExec(c), g, Config{Seed: 13, MaxRounds: 1, ReprofileEvery: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Bootstrap(); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	stats, err := s.Run(9)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Reprofiles != 3 {
		t.Errorf("Reprofiles = %d, want 3", stats.Reprofiles)
	}
	// The hardware did not change: no drift, no recomputation.
	if stats.Recomputed != 0 {
		t.Errorf("Recomputed = %d on stable hardware, want 0", stats.Recomputed)
	}
}

func TestRunDetectsHardwareDrift(t *testing.T) {
	c := cluster2(t)
	g := dpTrainGraph(t, 2, 64)
	s, err := New(c, simExec(c), g, Config{Seed: 17, MaxRounds: 1, ReprofileEvery: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Bootstrap(); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	before, err := s.Run(2)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if before.Recomputed != 0 {
		t.Fatalf("drift before hardware change: %d", before.Recomputed)
	}

	// The "hardware" degrades mid-training: device 1 loses two thirds of
	// its throughput (thermal throttling, a noisy neighbour...). The
	// periodic profiler must notice the drift; with the cluster now
	// asymmetric, the recomputed strategy may or may not beat the running
	// one, but the check itself must fire.
	c.Device(1).PeakFLOPS /= 3
	c.Device(1).MemBandwidth /= 3
	after, err := s.Run(6)
	if err != nil {
		t.Fatalf("Run after drift: %v", err)
	}
	if after.Reprofiles == 0 {
		t.Fatal("no reprofiling checks performed")
	}
	if after.AvgIter <= before.AvgIter {
		t.Errorf("degraded hardware did not slow training: %v vs %v",
			after.AvgIter, before.AvgIter)
	}
}

func TestDriftedThresholds(t *testing.T) {
	c := cluster2(t)
	g := dpTrainGraph(t, 2, 64)
	s, err := New(c, simExec(c), g, Config{Seed: 19, MaxRounds: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Bootstrap(); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	res, err := s.exec.Run(s.cur.graph, s.cur.art, s.runConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.drifted(res) {
		t.Error("stable hardware reported as drifted")
	}
}

// TestRefreshKeepsLatestMeasurement: a drift refresh that keeps the running
// strategy must leave the session holding that strategy's latest
// measurement, the drifted iteration, not the one from before the drift: a
// later Grow checks its floor against it.
func TestRefreshKeepsLatestMeasurement(t *testing.T) {
	for _, tc := range []struct {
		name       string
		slow       time.Duration
		oom        bool
		infeasible bool
	}{
		{name: "rolled back: slower", slow: time.Second},
		{name: "rolled back: OOM", oom: true},
		{name: "no feasible placement", infeasible: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster2(t)
			// Bootstrap's candidate OOMs, so the session runs the
			// data-parallel start, which rigged leaves alone.
			x := &rigged{inner: simExec(c), oom: true}
			infeasible := false
			strategist := func(ctx context.Context, g *graph.Graph, c *device.Cluster, est cost.Estimator, o core.Options) (*core.Strategy, error) {
				if infeasible {
					return nil, core.ErrNoFeasiblePlacement
				}
				return promising(ctx, g, c, est, o)
			}
			s, err := New(c, x, dpTrainGraph(t, 2, 64), Config{
				Seed: 5, MaxRounds: 1, ReprofileEvery: 2, Strategist: strategist})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if _, err := s.Bootstrap(); err != nil {
				t.Fatalf("Bootstrap: %v", err)
			}
			if got := s.ActiveArtifact().Provenance.Origin; got != "data-parallel" {
				t.Fatalf("bootstrapped onto a %q strategy, want the data-parallel start", got)
			}
			c.Device(1).PeakFLOPS /= 10
			c.Device(1).MemBandwidth /= 10
			x.slow, x.oom, infeasible = tc.slow, tc.oom, tc.infeasible
			stats, err := s.Run(2)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if stats.Reprofiles != 1 || stats.Recomputed != 0 {
				t.Fatalf("%d reprofiles and %d recomputes, want one check that keeps the running strategy",
					stats.Reprofiles, stats.Recomputed)
			}
			if s.curMeasured != stats.Last.Makespan {
				t.Errorf("kept strategy measured at %v, its drifted iteration took %v",
					s.curMeasured, stats.Last.Makespan)
			}
		})
	}
}
