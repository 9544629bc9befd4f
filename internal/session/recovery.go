package session

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fastt/internal/checkpoint"
	"fastt/internal/core"
	"fastt/internal/placement"
	"fastt/internal/runtime"
	"fastt/internal/strategy"
	"fastt/internal/validate"
)

// ErrNoSurvivors is returned when a device failure leaves no cluster to
// recover onto.
var ErrNoSurvivors = errors.New("device failure left no usable cluster")

// Degradation ladder labels recorded in RunStats.Degraded and artifact
// provenance.
const (
	degradedModelParallel = "model-parallel"
	degradedSingleDevice  = "single-device"
)

// recoverFromDeviceLoss drives the full recovery loop after a device failure:
// shrink the executor and cluster, restore the latest checkpoint, recompute a
// strategy on the survivors and resume. A further failure during recovery
// re-enters the loop on the freshly lost device; the loop is bounded because
// every pass removes one device and shrinking the last one fails.
func (s *Session) recoverFromDeviceLoss(ctx context.Context, lost *runtime.DeviceLostError, stats *RunStats) error {
	if _, ok := s.exec.(runtime.DegradableExecutor); !ok {
		return lost // backend cannot shrink: surface the failure
	}
	for {
		err := s.recoverOnce(ctx, lost, stats)
		if err == nil {
			return nil
		}
		var again *runtime.DeviceLostError
		if errors.As(err, &again) {
			lost = again
			continue
		}
		return err
	}
}

// recoverOnce handles exactly one device loss. It returns a bare
// *runtime.DeviceLostError when another device dies while re-profiling the
// recovered strategy, so the caller can recover again.
func (s *Session) recoverOnce(ctx context.Context, lost *runtime.DeviceLostError, stats *RunStats) error {
	deg, ok := s.exec.(runtime.DegradableExecutor)
	if !ok {
		return lost
	}
	stats.DeviceLosses++
	attempt := stats.DeviceLosses

	// Shrink the backend to the survivors. The renumbering contract is part
	// of DegradableExecutor: old ID d maps to d below the failed device and
	// d-1 above it.
	nextExec, nextCluster, err := deg.Shrink(lost.Device)
	if err != nil {
		return fmt.Errorf("%w: lost device %d: %v", ErrNoSurvivors, lost.Device, err)
	}
	mapping := make([]int, s.cluster.NumDevices())
	for d := range mapping {
		switch {
		case d == lost.Device:
			mapping[d] = -1
		case d < lost.Device:
			mapping[d] = d
		default:
			mapping[d] = d - 1
		}
	}
	s.costs = s.costs.RemapDevices(nextCluster, mapping)
	s.cluster = nextCluster
	s.exec = nextExec

	// Restore the latest checkpoint: training progress rolls back to the
	// snapshot step and the restart is charged to the timeline, like a real
	// checkpoint/restart cycle. Without a snapshot (possible when Bootstrap
	// never activated a candidate) only the in-flight iteration is lost.
	paramBytes := s.cur.graph.ComputeStats().ParamBytes
	snap, err := s.store.Restore()
	switch {
	case err == nil:
		if s.step > snap.Step {
			stats.LostIterations += s.step - snap.Step
			s.step = snap.Step
		}
		paramBytes = snap.ParamBytes
	case !errors.Is(err, checkpoint.ErrNoSnapshot):
		return fmt.Errorf("restore checkpoint: %w", err)
	}

	// Charge restart plus doubling retry backoff, and advance the backend's
	// timeline so time-anchored fault schedules stay aligned.
	charge := s.ckCost.RestartCost(paramBytes) + s.cfg.FaultBackoff<<(attempt-1)
	stats.RecoveryTime += charge
	s.advanceTimeline(charge)

	// Within the retry budget, recompute a full OS-DPOS strategy on the
	// survivors; past it (a fault storm), or when the calculator finds no
	// memory-feasible placement, degrade to the bootstrap fallbacks. The
	// recompute is warm-started from the pre-failure strategy: still a
	// feasible plan for the same graph (the seed is re-placed on the
	// survivors, not remapped), and its evaluated makespan prunes most of
	// the candidate work — recovery no longer pays a cold search.
	if attempt <= s.cfg.MaxFaultRetries {
		cand, costHash, wall, err := s.computeSeeded(ctx, s.seedArtifact())
		stats.RecomputeWall += wall
		switch {
		case errors.Is(err, core.ErrNoFeasiblePlacement):
			// fall through to the degradation ladder
		case err != nil:
			return fmt.Errorf("recompute on survivors: %w", err)
		default:
			// Memory is re-checked here: the failed run's rollback safety
			// net is gone, so a strategy that cannot fit must not activate.
			if verr := validate.Strategy(cand, s.cluster, validate.Options{}); verr == nil {
				next := s.candidateActive(cand, costHash)
				m, oom, perr := s.profile(next)
				if perr != nil {
					return perr // includes a nested DeviceLostError
				}
				if oom == nil {
					s.cur = next
					s.curMeasured = m
					stats.Recomputed++
					stats.RecoveryTime += m * time.Duration(s.cfg.ProfileIters)
					return s.activate()
				}
			}
			// structurally or memory-infeasible at runtime: degrade
		}
	}
	return s.degradedFallback(stats)
}

// degradedFallback installs the sturdiest strategy that still fits: memory-
// balanced model parallelism over the survivors, then everything on one
// device. It is the "keep training, slower" floor under a fault storm.
func (s *Session) degradedFallback(stats *RunStats) error {
	if place, err := placement.ModelParallel(s.base, s.cluster, s.cfg.Memory); err == nil {
		art := strategy.New(s.base, place, nil, nil, 0, s.provenance(degradedModelParallel, s.costHash()))
		if err := s.installFallback(art, degradedModelParallel, stats); err == nil {
			return nil
		} else if lostErr := asDeviceLost(err); lostErr != nil {
			return lostErr
		}
	}
	place := placement.SingleDevice(s.base)
	art := strategy.New(s.base, place, nil, nil, 0, s.provenance(degradedSingleDevice, s.costHash()))
	if err := s.installFallback(art, degradedSingleDevice, stats); err != nil {
		if lostErr := asDeviceLost(err); lostErr != nil {
			return lostErr
		}
		return fmt.Errorf("%w: single-device fallback: %v", ErrNoSurvivors, err)
	}
	return nil
}

// installFallback profiles a fallback strategy and activates it when it runs
// without OOM.
func (s *Session) installFallback(art *strategy.Artifact, label string, stats *RunStats) error {
	next := active{graph: s.base, art: art}
	m, oom, err := s.profile(next)
	if err != nil {
		return err
	}
	if oom != nil {
		return oom
	}
	s.cur = next
	s.curMeasured = m
	stats.Degraded = label
	stats.RecoveryTime += m * time.Duration(s.cfg.ProfileIters)
	return s.activate()
}

// asDeviceLost unwraps a DeviceLostError so recovery loops can re-enter on
// failures that hit during fallback profiling.
func asDeviceLost(err error) *runtime.DeviceLostError {
	var lost *runtime.DeviceLostError
	if errors.As(err, &lost) {
		return lost
	}
	return nil
}
