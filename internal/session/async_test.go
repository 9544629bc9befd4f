package session

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"fastt/internal/core"
	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/runtime"
	"fastt/internal/sim"
	"fastt/internal/strategy"
)

// hashLog is a Strategist that records, per call, the hash of the cost
// models it was handed, and then runs the in-process calculator.
type hashLog struct{ hashes []string }

func (l *hashLog) strategist(ctx context.Context, g *graph.Graph, cluster *device.Cluster,
	est cost.Estimator, opts core.Options) (*core.Strategy, error) {
	m, ok := est.(*cost.Model)
	if !ok {
		return nil, fmt.Errorf("strategist got a %T, want the session's *cost.Model", est)
	}
	hash, err := strategy.HashJSON(m.WriteJSON)
	if err != nil {
		return nil, err
	}
	l.hashes = append(l.hashes, hash)
	return core.ComputeStrategyCtx(ctx, g, cluster, est, opts)
}

// TestCostHashIsTheSearchedState pins the activated artifact's cost hash to
// the cost-model state the search read, on every path that switches
// strategy: the session hashes that state beside the search, and must
// neither hash it after a later observation nor mix up two searches.
func TestCostHashIsTheSearchedState(t *testing.T) {
	for _, tc := range []struct {
		name string
		// run drives the session through the path and returns the index
		// of the strategist call whose candidate is active afterwards.
		run func(t *testing.T, log *hashLog) (*Session, int)
	}{
		{"multi-round bootstrap", func(t *testing.T, log *hashLog) (*Session, int) {
			c := cluster2(t)
			cfg := Config{Seed: 1, MaxRounds: 3, StableCV: 1e-12, Strategist: log.strategist}
			s, err := New(c, simExec(c), dpTrainGraph(t, 2, 64), cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			rep, err := s.Bootstrap()
			if err != nil {
				t.Fatalf("Bootstrap: %v", err)
			}
			if len(rep.Rounds) != cfg.MaxRounds || len(log.hashes) != cfg.MaxRounds {
				t.Fatalf("%d rounds and %d searches, want %d of each", len(rep.Rounds), len(log.hashes), cfg.MaxRounds)
			}
			last := -1
			for i, r := range rep.Rounds {
				if r.Activated {
					last = i
				}
			}
			if last < 0 {
				t.Fatal("no round activated its candidate")
			}
			return s, last
		}},
		{"drift refresh", func(t *testing.T, log *hashLog) (*Session, int) {
			c := cluster2(t)
			cfg := Config{Seed: 17, MaxRounds: 1, ReprofileEvery: 2, Strategist: log.strategist}
			s, err := New(c, simExec(c), dpTrainGraph(t, 2, 64), cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if _, err := s.Bootstrap(); err != nil {
				t.Fatalf("Bootstrap: %v", err)
			}
			c.Device(1).PeakFLOPS /= 10
			c.Device(1).MemBandwidth /= 10
			// Each Run(2) checks for drift once, so the refresh that
			// activates is the last search.
			for range 5 {
				stats, err := s.Run(2)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if stats.Recomputed > 0 {
					return s, len(log.hashes) - 1
				}
			}
			t.Fatal("no drift refresh activated a recomputed strategy")
			return nil, 0
		}},
		{"grow", func(t *testing.T, log *hashLog) (*Session, int) {
			s, exec := bootFaultSession(t, cluster4(t), dpTrainGraph(t, 4, 64),
				Config{Seed: 3, MaxRounds: 2, Strategist: log.strategist})
			loseDevice(t, s, exec, 2)
			rep, err := s.Grow(device.JoinSpec{Class: device.ClassA100, Server: 0})
			if err != nil {
				t.Fatalf("Grow: %v", err)
			}
			if !rep.Recomputed {
				t.Fatal("the join activated no recomputed strategy")
			}
			return s, len(log.hashes) - 1
		}},
		{"device-loss recovery", func(t *testing.T, log *hashLog) (*Session, int) {
			s, exec := bootFaultSession(t, cluster4(t), dpTrainGraph(t, 4, 64),
				Config{Seed: 3, MaxRounds: 2, Strategist: log.strategist})
			iter := s.curMeasured
			plan := &sim.FaultPlan{Faults: []sim.FaultSpec{
				{Kind: "device-failure", AtNs: int64(exec.Epoch() + 3*iter + iter/2), Device: 2},
			}}
			if err := exec.SetPlan(plan); err != nil {
				t.Fatalf("SetPlan: %v", err)
			}
			stats, err := s.Run(8)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if stats.Recomputed != 1 || stats.Degraded != "" {
				t.Fatalf("recovery recomputed %d strategies, degraded to %q; want one recompute",
					stats.Recomputed, stats.Degraded)
			}
			return s, len(log.hashes) - 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := &hashLog{}
			s, call := tc.run(t, log)
			art := s.ActiveArtifact()
			if art.Provenance.Origin != "fastt" {
				t.Fatalf("active artifact's origin is %q, want a computed strategy", art.Provenance.Origin)
			}
			if got, want := art.Provenance.CostHash, log.hashes[call]; got != want {
				t.Errorf("active cost hash %s, search %d of %d read %s", got, call+1, len(log.hashes), want)
			}
		})
	}
}

// rigged wraps the session's executor: runs of computed strategies (origin
// "fastt") are stretched by slow or take makespan, fail with an OOM once
// fits of them have completed, or lose a device on the lostAt-th run, as
// set; runs of every other strategy take base, when it is set.
type rigged struct {
	inner    runtime.Executor
	slow     time.Duration
	makespan time.Duration
	base     time.Duration
	oom      bool
	fits     int
	lostAt   int
	runs     int
}

func (x *rigged) Run(g *graph.Graph, art *strategy.Artifact, cfg runtime.Config) (*runtime.Result, error) {
	if art.Provenance.Origin != "fastt" {
		res, err := x.inner.Run(g, art, cfg)
		if err == nil && x.base > 0 {
			res.Makespan = x.base
		}
		return res, err
	}
	x.runs++
	switch {
	case x.oom && x.runs > x.fits:
		return nil, &runtime.OOMError{Device: 0, Needed: 2, Capacity: 1}
	case x.runs == x.lostAt:
		return nil, &runtime.DeviceLostError{Device: 1}
	}
	res, err := x.inner.Run(g, art, cfg)
	if err == nil {
		res.Makespan += x.slow
		if x.makespan > 0 {
			res.Makespan = x.makespan
		}
	}
	return res, err
}

// promising is a Strategist whose candidate predicts 1 ns, so a Bootstrap
// round always activates and profiles it.
func promising(ctx context.Context, g *graph.Graph, cluster *device.Cluster,
	est cost.Estimator, opts core.Options) (*core.Strategy, error) {
	st, err := core.ComputeStrategyCtx(ctx, g, cluster, est, opts)
	if err == nil {
		st.Predicted = 1
	}
	return st, err
}

// settleGoroutines fails unless the goroutine count returns to base: a
// joined goroutine may still be a few instructions from exiting when the
// call that joined it returns, but one left behind never does.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:goruntime.Stack(buf, true)]
			t.Fatalf("%d goroutines, %d before the call:\n%s", goruntime.NumGoroutine(), base, buf)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBootstrapJoinsGoroutines runs Bootstrap through each way a round can
// end, and checks that every goroutine the session started beside its
// simulator and search has ended when Bootstrap returns. Under -race it
// also checks each join orders the goroutine's reads and writes before the
// session's next ones. A rolled-back round must restore the start
// artifact with its fingerprint stamped.
func TestBootstrapJoinsGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name       string
		exec       *rigged
		strategist func(cancel context.CancelFunc) core.Strategist
		wantErr    func(error) bool
		check      func(t *testing.T, s *Session, rep *Report)
	}{
		{name: "rolled back: slower", exec: &rigged{slow: time.Second},
			check: rolledBack},
		{name: "rolled back: OOM", exec: &rigged{oom: true},
			check: rolledBack},
		{name: "not promising", exec: &rigged{},
			strategist: func(context.CancelFunc) core.Strategist {
				return func(ctx context.Context, g *graph.Graph, c *device.Cluster, est cost.Estimator, o core.Options) (*core.Strategy, error) {
					st, err := core.ComputeStrategyCtx(ctx, g, c, est, o)
					if err == nil {
						st.Predicted = time.Hour
					}
					return st, err
				}
			},
			check: func(t *testing.T, s *Session, rep *Report) {
				if r := rep.Rounds[0]; r.Activated || r.RolledBack {
					t.Errorf("round 1 activated a candidate that was not promising: %+v", r)
				}
			}},
		{name: "no feasible placement", exec: &rigged{},
			strategist: func(context.CancelFunc) core.Strategist {
				return func(context.Context, *graph.Graph, *device.Cluster, cost.Estimator, core.Options) (*core.Strategy, error) {
					return nil, core.ErrNoFeasiblePlacement
				}
			},
			check: func(t *testing.T, s *Session, rep *Report) {
				if r := rep.Rounds[0]; r.Predicted != 0 || r.Measured == 0 {
					t.Errorf("round 1 %+v: want a re-profile and no candidate", r)
				}
			}},
		{name: "cancelled mid-search", exec: &rigged{},
			strategist: func(cancel context.CancelFunc) core.Strategist {
				return func(ctx context.Context, g *graph.Graph, c *device.Cluster, est cost.Estimator, o core.Options) (*core.Strategy, error) {
					cancel()
					return core.ComputeStrategyCtx(ctx, g, c, est, o)
				}
			},
			wantErr: func(err error) bool { return errors.Is(err, context.Canceled) }},
		{name: "device lost mid-profile", exec: &rigged{lostAt: 2},
			wantErr: func(err error) bool { return asDeviceLost(err) != nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster2(t)
			g := dpTrainGraph(t, 2, 64)
			tc.exec.inner = simExec(c)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := Config{Seed: 5, MaxRounds: 2, StableCV: 1e-12, Strategist: promising}
			if tc.strategist != nil {
				cfg.Strategist = tc.strategist(cancel)
			}
			s, err := New(c, tc.exec, g, cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			base := goruntime.NumGoroutine()
			rep, err := s.BootstrapCtx(ctx)
			settleGoroutines(t, base)
			if tc.wantErr != nil {
				if err == nil || !tc.wantErr(err) {
					t.Fatalf("BootstrapCtx err = %v, want the injected failure", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("BootstrapCtx: %v", err)
			}
			tc.check(t, s, rep)
			if got, want := s.ActiveArtifact().Fingerprint, strategy.Fingerprint(g); got != want {
				t.Errorf("active artifact fingerprint %q, base graph %q", got, want)
			}
		})
	}
}

// rolledBack checks that round 1 rolled its candidate back to the start
// strategy, and that the start artifact, checkpointed before the
// candidate ran, re-materializes through rollback's fingerprint check.
func rolledBack(t *testing.T, s *Session, rep *Report) {
	t.Helper()
	if !rep.Rounds[0].RolledBack {
		t.Fatalf("round 1 not rolled back: %+v", rep.Rounds[0])
	}
	if got := s.ActiveArtifact().Provenance.Origin; got != "data-parallel" {
		t.Fatalf("rolled back to a %q strategy, want the data-parallel start", got)
	}
	if err := s.rollback(); err != nil {
		t.Fatalf("start artifact does not re-materialize from its checkpoint: %v", err)
	}
	if s.ActiveGraph().NumOps() != s.base.NumOps() {
		t.Errorf("start artifact re-materialized %d ops, base graph has %d", s.ActiveGraph().NumOps(), s.base.NumOps())
	}
}

// TestRunJoinsGoroutines loses a device mid-run: the recovery recomputes
// and profiles beside a hash and an observer, and every one of them has
// ended when Run returns.
func TestRunJoinsGoroutines(t *testing.T) {
	s, exec := bootFaultSession(t, cluster4(t), dpTrainGraph(t, 4, 64), Config{Seed: 3, MaxRounds: 2})
	iter := s.curMeasured
	plan := &sim.FaultPlan{Faults: []sim.FaultSpec{
		{Kind: "device-failure", AtNs: int64(exec.Epoch() + 3*iter + iter/2), Device: 2},
	}}
	if err := exec.SetPlan(plan); err != nil {
		t.Fatalf("SetPlan: %v", err)
	}
	base := goruntime.NumGoroutine()
	stats, err := s.Run(8)
	settleGoroutines(t, base)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.DeviceLosses != 1 {
		t.Fatalf("DeviceLosses = %d, want 1", stats.DeviceLosses)
	}
	if got, want := s.ActiveArtifact().Fingerprint, strategy.Fingerprint(s.base); got != want {
		t.Errorf("recovered artifact fingerprint %q, base graph %q", got, want)
	}
}
