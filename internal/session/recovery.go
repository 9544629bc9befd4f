package session

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fastt/internal/checkpoint"
	"fastt/internal/device"
	"fastt/internal/placement"
	"fastt/internal/runtime"
	"fastt/internal/strategy"
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
	s.resize(nextExec, nextCluster, lost.Device)

	// Restore the latest checkpoint, charging restart plus doubling retry
	// backoff.
	n, charge, err := s.restore(faultBackoff << (attempt - 1))
	stats.LostIterations += n
	stats.RecoveryTime += charge
	if err != nil {
		return err
	}

	// Within the retry budget, recompute a full OS-DPOS strategy on the
	// survivors; past it (a fault storm), or when the calculator finds no
	// memory-feasible placement, degrade to the bootstrap fallbacks. The
	// recompute is warm-started from the pre-failure strategy: still a
	// feasible plan for the same graph (the seed is re-placed on the
	// survivors, not remapped), and its evaluated makespan prunes most of
	// the candidate work — recovery no longer pays a cold search. Memory
	// is validated up front: the failed run's rollback safety net is gone,
	// so a strategy that cannot fit must not activate.
	if attempt <= s.cfg.MaxFaultRetries {
		o, err := s.trial(ctx, s.seedArtifact(), s.curMeasured, recoverRules)
		stats.RecomputeWall += o.wall
		stats.RecoveryTime += o.charge
		if err != nil {
			return err // includes a nested DeviceLostError
		}
		if o.kept {
			stats.Recomputed++
			return nil
		}
		// infeasible, invalid, or OOM at runtime: degrade
	}
	return s.degradedFallback(stats)
}

// resize installs a backend grown or shrunk by one device. Existing devices
// keep their order: after a join (lost < 0) every ID is unchanged; after a
// loss, IDs above lost shift down by one, the DegradableExecutor contract.
// The cost models are remapped along the same mapping, which re-keys their
// class and link-tier aggregates to the new cluster.
func (s *Session) resize(exec runtime.Executor, cluster *device.Cluster, lost int) {
	mapping := make([]int, s.cluster.NumDevices())
	for d := range mapping {
		switch {
		case lost < 0 || d < lost:
			mapping[d] = d
		case d == lost:
			mapping[d] = -1
		default:
			mapping[d] = d - 1
		}
	}
	s.costs = s.costs.RemapDevices(cluster, mapping)
	s.cluster = cluster
	s.exec = exec
}

// restore rolls training progress back to the latest checkpoint and charges
// its restart plus extra to the training timeline, like a real
// checkpoint/restart cycle. It returns the iterations lost and the charge.
// Without a snapshot (possible when Bootstrap never activated a candidate)
// nothing rolls back and the restart is priced on the running strategy.
func (s *Session) restore(extra time.Duration) (int, time.Duration, error) {
	lost := 0
	paramBytes := s.cur.graph.ComputeStats().ParamBytes
	snap, err := s.store.Restore()
	switch {
	case err == nil:
		if s.step > snap.Step {
			lost = s.step - snap.Step
			s.step = snap.Step
		}
		paramBytes = snap.ParamBytes
	case !errors.Is(err, checkpoint.ErrNoSnapshot):
		return 0, 0, fmt.Errorf("restore checkpoint: %w", err)
	}
	charge := s.ckCost.RestartCost(paramBytes) + extra
	s.advanceTimeline(charge)
	return lost, charge, nil
}

// degradedFallback installs the sturdiest strategy that still fits: memory-
// balanced model parallelism over the survivors, then everything on one
// device. It is the "keep training, slower" floor under a fault storm.
func (s *Session) degradedFallback(stats *RunStats) error {
	if place, err := placement.ModelParallel(s.base, s.cluster); err == nil {
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

// installFallback tries a fallback strategy under recoverRules: it is
// activated when it runs without OOM.
func (s *Session) installFallback(art *strategy.Artifact, label string, stats *RunStats) error {
	o, err := s.try(outcome{}, active{graph: s.base, art: art}, s.curMeasured, recoverRules)
	stats.RecoveryTime += o.charge
	switch {
	case err != nil:
		return err
	case o.oom != nil:
		return o.oom
	}
	stats.Degraded = label
	return nil
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
