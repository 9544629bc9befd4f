package session

import (
	"context"
	"errors"
	"testing"
	"time"

	"fastt/internal/checkpoint"
	"fastt/internal/core"
	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/runtime"
	"fastt/internal/sim"
)

// elasticRig is a rigged executor over a sim.Executor, so the session can
// shrink and grow it.
type elasticRig struct{ *rigged }

func (x elasticRig) executor() *sim.Executor { return x.inner.(*sim.Executor) }

func (x elasticRig) Shrink(dev int) (runtime.Executor, *device.Cluster, error) {
	next, c, err := x.executor().Shrink(dev)
	if err != nil {
		return nil, nil, err
	}
	x.inner = next
	return x, c, nil
}

func (x elasticRig) Grow(join device.JoinSpec) (runtime.Executor, *device.Cluster, *device.Device, error) {
	next, c, d, err := x.executor().Grow(join)
	if err != nil {
		return nil, nil, nil, err
	}
	x.inner = next
	return x, c, d, nil
}

func (x elasticRig) Advance(d time.Duration) { x.executor().Advance(d) }

// TestTrialCharges pins, for each caller of trial and each way its
// candidate can end, the simulated time charged, whether the candidate was
// kept, and what the checkpoint holds afterwards. The start and fallback
// strategies run in base and candidates in a fixed makespan, so each
// charge is a whole number of restarts of the data-parallel start (R) and
// of half-base iterations: every restart and every profiled iteration that
// completed is charged, whatever the outcome.
func TestTrialCharges(t *testing.T) {
	const base = 10 * time.Millisecond
	outcomes := []struct {
		name    string
		rig     rigged
		invalid bool
	}{
		{name: "accepted", rig: rigged{makespan: base / 2}},
		{name: "slower", rig: rigged{makespan: 2 * base}},
		{name: "tie", rig: rigged{makespan: base}},
		// One profiled iteration completes before the OOM.
		{name: "OOM", rig: rigged{makespan: base / 2, oom: true, fits: 1}},
		{name: "invalid", invalid: true},
	}
	type want struct {
		restarts, halves int
		kept             bool
		checkpoint       string // origin of the checkpointed strategy; "" for none
		err              bool
	}
	for _, caller := range []struct {
		name string
		// run drives the trial under test. The session has been bootstrapped
		// onto the data-parallel start unless the trial is Bootstrap's. It
		// returns the charge beyond the caller's own (the start profile,
		// the restore restart and backoff) and whether the candidate was
		// kept.
		run  func(t *testing.T, s *Session, fe *sim.Executor, r time.Duration) (time.Duration, bool, error)
		want []want // in the order of outcomes
	}{
		{name: "Bootstrap",
			run: func(t *testing.T, s *Session, _ *sim.Executor, _ time.Duration) (time.Duration, bool, error) {
				rep, err := s.Bootstrap()
				if err != nil {
					return 0, false, err
				}
				return rep.SimulatedOverhead - 3*base, rep.Rounds[0].Activated, nil
			},
			want: []want{
				{restarts: 1, halves: 3, kept: true, checkpoint: "data-parallel"},
				{restarts: 2, halves: 12, checkpoint: "data-parallel"},
				{restarts: 1, halves: 6, kept: true, checkpoint: "data-parallel"},
				{restarts: 2, halves: 1, checkpoint: "data-parallel"},
				{err: true},
			}},
		{name: "drift refresh",
			run: func(t *testing.T, s *Session, _ *sim.Executor, _ time.Duration) (time.Duration, bool, error) {
				s.Cluster().Device(1).PeakFLOPS /= 10
				s.Cluster().Device(1).MemBandwidth /= 10
				stats, err := s.Run(2)
				if err != nil {
					return 0, false, err
				}
				if stats.Reprofiles != 1 {
					t.Fatalf("%d drift checks, want 1", stats.Reprofiles)
				}
				return stats.RecoveryTime, stats.Recomputed == 1, nil
			},
			want: []want{
				{restarts: 1, halves: 3, kept: true, checkpoint: "data-parallel"},
				{restarts: 2, halves: 12, checkpoint: "data-parallel"},
				{restarts: 1, halves: 6, kept: true, checkpoint: "data-parallel"},
				{restarts: 2, halves: 1, checkpoint: "data-parallel"},
				{err: true, checkpoint: "data-parallel"},
			}},
		{name: "Grow",
			run: func(t *testing.T, s *Session, _ *sim.Executor, r time.Duration) (time.Duration, bool, error) {
				rep, err := s.Grow(device.JoinSpec{Class: device.ClassA100, Server: 0})
				if err != nil {
					return 0, false, err
				}
				return rep.RecoveryTime - r, rep.Recomputed, nil
			},
			want: []want{
				{halves: 3, kept: true, checkpoint: "fastt"},
				{halves: 12, checkpoint: "data-parallel"},
				{halves: 6, checkpoint: "data-parallel"},
				{halves: 1, checkpoint: "data-parallel"},
				{checkpoint: "data-parallel"},
			}},
		{name: "device-loss recovery",
			run: func(t *testing.T, s *Session, fe *sim.Executor, r time.Duration) (time.Duration, bool, error) {
				plan := &sim.FaultPlan{Faults: []sim.FaultSpec{
					{Kind: "device-failure", AtNs: int64(fe.Epoch() + base/2), Device: 2},
				}}
				if err := fe.SetPlan(plan); err != nil {
					t.Fatalf("SetPlan: %v", err)
				}
				stats, err := s.Run(1)
				if err != nil {
					return 0, false, err
				}
				if stats.DeviceLosses != 1 {
					t.Fatalf("%d device losses, want 1", stats.DeviceLosses)
				}
				return stats.RecoveryTime - r - faultBackoff, stats.Recomputed == 1, nil
			},
			// A candidate that is not kept degrades to model parallelism,
			// whose profile (6 halves) is charged too.
			want: []want{
				{halves: 3, kept: true, checkpoint: "fastt"},
				{halves: 12, kept: true, checkpoint: "fastt"},
				{halves: 6, kept: true, checkpoint: "fastt"},
				{halves: 7, checkpoint: "model-parallel"},
				{halves: 6, checkpoint: "model-parallel"},
			}},
	} {
		for i, oc := range outcomes {
			t.Run(caller.name+"/"+oc.name, func(t *testing.T) {
				c := cluster4(t)
				g := dpTrainGraph(t, 4, 64)
				fe := sim.DefaultExecutor(c)
				invalid := false
				strategist := func(ctx context.Context, g *graph.Graph, c *device.Cluster, est cost.Estimator, o core.Options) (*core.Strategy, error) {
					st, err := promising(ctx, g, c, est, o)
					if err == nil && invalid {
						st.Placement = append([]int(nil), st.Placement...)
						st.Placement[0] = c.NumDevices()
					}
					return st, err
				}
				x := &rigged{inner: fe, base: base}
				s, err := New(c, elasticRig{x}, g, Config{
					Seed: 3, MaxRounds: 1, StableCV: 1e-12, ReprofileEvery: 2, Strategist: strategist})
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				r := s.ckCost.RestartCost(g.ComputeStats().ParamBytes)
				arm := func() {
					*x = oc.rig
					x.inner, x.base, invalid = fe, base, oc.invalid
				}
				if caller.name == "Bootstrap" {
					arm()
				} else {
					// Bootstrap's candidate OOMs, so the session runs the
					// data-parallel start.
					x.oom = true
					if _, err := s.Bootstrap(); err != nil {
						t.Fatalf("Bootstrap: %v", err)
					}
					if s.curMeasured != base {
						t.Fatalf("start measured %v, want %v", s.curMeasured, base)
					}
					arm()
				}

				charge, kept, err := caller.run(t, s, fe, r)
				w := caller.want[i]
				if (err != nil) != w.err {
					t.Fatalf("err = %v, want an error: %v", err, w.err)
				}
				if want := time.Duration(w.restarts)*r + time.Duration(w.halves)*base/2; charge != want {
					t.Errorf("charged %v, want %d restarts of %v and %d half-base iterations (%v)",
						charge, w.restarts, r, w.halves, want)
				}
				if kept != w.kept {
					t.Errorf("kept = %v, want %v", kept, w.kept)
				}
				snap, err := s.store.Restore()
				origin := snap.Artifact.Provenance.Origin
				if errors.Is(err, checkpoint.ErrNoSnapshot) {
					origin = ""
				} else if err != nil {
					t.Fatalf("Restore: %v", err)
				}
				if origin != w.checkpoint {
					t.Errorf("checkpoint holds a %q strategy, want %q", origin, w.checkpoint)
				}
			})
		}
	}
}
