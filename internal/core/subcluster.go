package core

import (
	"context"
	"errors"
	"time"

	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
)

// This file implements class-restricted candidate populations for
// heterogeneous clusters. The paper observes that FastT "may not use all the
// input devices, and can choose a subset which achieves better performance
// than using all" (Sec. 5.2); on a mixed-class cluster the greedy EFT device
// selection can spread work onto a slow class — and across the link tier
// separating it — then lose to a schedule that simply leaves the slow class
// idle. So on a mixed cluster the search also computes each single-class
// restriction of the cluster as an independent candidate population, and the
// strategy with the lowest predicted makespan wins. Homogeneous clusters
// have no restrictions to try and are bit-for-bit unaffected.

// remappedEstimator answers a renumbered subcluster's cost queries with the
// original cluster's devices, so learned per-device and per-link statistics
// follow each device through the renumbering instead of being misattributed.
type remappedEstimator struct {
	est  cost.Estimator
	orig []*device.Device // subcluster device ID -> original device
}

func (r *remappedEstimator) Exec(op *graph.Op, dev *device.Device) time.Duration {
	return r.est.Exec(op, r.orig[dev.ID])
}

func (r *remappedEstimator) Comm(bytes int64, from, to *device.Device) time.Duration {
	return r.est.Comm(bytes, r.orig[from.ID], r.orig[to.ID])
}

// classSubcluster is one single-class restriction of a mixed cluster.
type classSubcluster struct {
	cluster *device.Cluster
	ids     []int // subcluster device ID -> original device ID
}

// classSubclusters returns one single-class restriction per device class of
// a mixed cluster, in the cluster's device order (so the fastest class is
// not privileged by construction — only by its predicted makespan). A
// homogeneous cluster yields none.
func classSubclusters(c *device.Cluster) []classSubcluster {
	byClass := make(map[string][]int)
	var order []string
	for _, d := range c.Devices() {
		name := d.ClassName()
		if _, ok := byClass[name]; !ok {
			order = append(order, name)
		}
		byClass[name] = append(byClass[name], d.ID)
	}
	if len(order) < 2 {
		return nil
	}
	subs := make([]classSubcluster, 0, len(order))
	for _, name := range order {
		keep := byClass[name]
		sub, err := restrictTo(c, keep)
		if err != nil {
			continue // a restriction that cannot be built is just not a candidate
		}
		subs = append(subs, classSubcluster{cluster: sub, ids: keep})
	}
	return subs
}

// restrictTo removes every device outside keep (ascending original IDs),
// chaining Without so the surviving devices renumber exactly as a sequence
// of failures would — subcluster ID j is original device keep[j].
func restrictTo(c *device.Cluster, keep []int) (*device.Cluster, error) {
	inKeep := make(map[int]bool, len(keep))
	for _, id := range keep {
		inKeep[id] = true
	}
	sub := c
	// Remove in descending original-ID order: no earlier removal shifts the
	// index of a later one, so the original ID is always the current ID.
	for id := c.NumDevices() - 1; id >= 0; id-- {
		if inKeep[id] {
			continue
		}
		next, _, err := sub.Without(id)
		if err != nil {
			return nil, err
		}
		sub = next
	}
	return sub, nil
}

// refineWithClassSubclusters runs the search once per single-class
// restriction of a mixed cluster and returns the best strategy by predicted
// makespan, remapped back to the full cluster's device numbering. Ties keep
// the full-cluster strategy; among restrictions, the first in device order
// wins, so the result is deterministic. Candidate-evaluation counters are
// summed into the winner so strategy-computation accounting stays honest.
func refineWithClassSubclusters(ctx context.Context, g *graph.Graph, cluster *device.Cluster, est cost.Estimator, opts Options, full *Strategy) (*Strategy, error) {
	best := full
	for _, sub := range classSubclusters(cluster) {
		subEst := &remappedEstimator{est: est, orig: originalDevices(cluster, sub.ids)}
		cand, err := ComputeStrategyCtx(ctx, g, sub.cluster, subEst, opts)
		if err != nil {
			if errors.Is(err, ErrNoFeasiblePlacement) {
				continue // the restriction can't hold the graph; not a candidate
			}
			return nil, err
		}
		best.Evaluated += cand.Evaluated
		best.Pruned += cand.Pruned
		best.Passes += cand.Passes
		if cand.Predicted < best.Predicted {
			for op, dev := range cand.Placement {
				cand.Placement[op] = sub.ids[dev]
			}
			cand.Evaluated, cand.Pruned, cand.Passes = best.Evaluated, best.Pruned, best.Passes
			// The seed evaluates independently per population (it may be
			// feasible on the full cluster but not on a restriction); keep
			// the winner's own SeedWon but report the warm start if any
			// population used it.
			cand.Seeded = cand.Seeded || best.Seeded
			if cand.SeedBound == 0 {
				cand.SeedBound = best.SeedBound
			}
			best = cand
		}
	}
	return best, nil
}

// originalDevices resolves subcluster ID -> original *Device for ids.
func originalDevices(c *device.Cluster, ids []int) []*device.Device {
	orig := make([]*device.Device, len(ids))
	for j, id := range ids {
		orig[j] = c.Device(id)
	}
	return orig
}
