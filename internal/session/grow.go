package session

import (
	"context"
	"fmt"
	"time"

	"fastt/internal/device"
	"fastt/internal/runtime"
)

// GrowReport summarizes one elastic scale-out: what joined, what the join
// cost on the training timeline, and whether the session is now running a
// strategy recomputed for the enlarged cluster.
type GrowReport struct {
	// Device / Name / Class identify the joined device in the new cluster.
	Device int
	Name   string
	Class  string
	// Devices is the cluster size after the join.
	Devices int
	// LostIterations counts training iterations rolled back by the
	// checkpoint restore.
	LostIterations int
	// RecoveryTime is the simulated timeline charge of the join: the
	// checkpoint restart plus profiling of the recomputed strategy.
	RecoveryTime time.Duration
	// RecomputeWall is the wall-clock time of the OS-DPOS recompute.
	RecomputeWall time.Duration
	// Measured is the recomputed strategy's profiled iteration time (zero
	// when not recomputed).
	Measured time.Duration
	// Recomputed reports whether the recomputed strategy was activated. When
	// false the session keeps training under the pre-join strategy — still
	// valid, since existing device IDs are unchanged — and the joiner idles
	// until a later recompute picks it up.
	Recomputed bool
}

// Grow absorbs a device joining mid-run — the elastic inverse of the
// device-loss recovery path. See GrowCtx.
func (s *Session) Grow(join device.JoinSpec) (*GrowReport, error) {
	return s.GrowCtx(context.Background(), join)
}

// GrowCtx grows the executor and cluster by one device, restores the latest
// checkpoint (a real scale-out is a checkpoint/restart cycle: progress rolls
// back to the snapshot and the restart is charged to the timeline),
// recomputes a full OS-DPOS strategy on the enlarged cluster, and resumes
// under it after validation and profiling. The learned cost models carry
// over unchanged for existing devices; the joiner starts from its class's
// pooled statistics when same-class devices were already profiled, and from
// the explore-biased zero estimate otherwise.
//
// The session must have been bootstrapped: before Bootstrap, GrowCtx
// returns the "session not bootstrapped" error RunCtx returns and changes
// nothing. The backend must implement runtime.GrowableExecutor. If the
// recompute finds no feasible placement, or the candidate fails validation,
// OOMs, or profiles no faster than the running strategy, the session keeps
// the pre-join strategy (existing device IDs are unchanged, so it remains
// runnable) and reports Recomputed=false instead of failing.
func (s *Session) GrowCtx(ctx context.Context, join device.JoinSpec) (*GrowReport, error) {
	if s.cur.graph == nil {
		return nil, errNotBootstrapped
	}
	grower, ok := s.exec.(runtime.GrowableExecutor)
	if !ok {
		return nil, fmt.Errorf("executor backend %T cannot grow", s.exec)
	}
	nextExec, nextCluster, joined, err := grower.Grow(join)
	if err != nil {
		return nil, err
	}
	s.resize(nextExec, nextCluster, -1)
	rep := &GrowReport{
		Device:  joined.ID,
		Name:    joined.Name,
		Class:   joined.ClassName(),
		Devices: nextCluster.NumDevices(),
	}

	// Joining is a checkpoint/restart cycle on the training timeline,
	// exactly like the loss path.
	lost, charge, err := s.restore(0)
	rep.LostIterations, rep.RecoveryTime = lost, charge
	if err != nil {
		return rep, err
	}

	// Recompute on the enlarged cluster, warm-started from the pre-join
	// strategy: it stays feasible (existing device IDs are unchanged) and
	// its evaluated makespan is exactly the never-slower floor growRules
	// keep, so candidates that cannot beat it prune early. A slow joiner
	// can make the enlarged cluster's best candidate worse than the running
	// strategy (pulling work onto it crosses a slower link than it saves
	// in compute). Unlike the loss path there is no degradation ladder:
	// the pre-join strategy is the safe floor.
	o, err := s.trial(ctx, s.seedArtifact(), s.curMeasured, growRules)
	rep.RecomputeWall = o.wall
	rep.RecoveryTime += o.charge
	if o.kept {
		rep.Measured, rep.Recomputed = o.measured, true
	}
	return rep, err
}
