// Package placement provides the baseline deployment strategies FastT is
// compared against: TensorFlow-style data parallelism (each replica pinned
// to one GPU, gradient aggregation on GPU 0), memory-balanced model
// parallelism for models that do not fit a single device, and the published
// normalized speeds of the RL-based systems from Fig. 3 of the paper.
package placement

import (
	"errors"
	"fmt"

	"fastt/internal/device"
	"fastt/internal/graph"
)

// Errors returned by the baseline builders.
var (
	// ErrTooManyReplicas is returned when a data-parallel graph references
	// replica indices outside the cluster.
	ErrTooManyReplicas = errors.New("replica index exceeds device count")
	// ErrDoesNotFit is returned when a graph cannot be model-parallel
	// partitioned within the cluster's total memory.
	ErrDoesNotFit = errors.New("graph exceeds cluster memory")
)

// DataParallel places a graph produced by graph.BuildDataParallel the way
// TensorFlow slim's replicated training does: replica r's ops on device r,
// shared gradient-aggregation ops on device 0, and colocation-constrained
// ops with their targets.
func DataParallel(g *graph.Graph, cluster *device.Cluster) ([]int, error) {
	place := make([]int, g.NumOps())
	for _, op := range g.Ops() {
		switch {
		case op.Replica >= 0:
			if op.Replica >= cluster.NumDevices() {
				return nil, fmt.Errorf("%w: replica %d on %d devices",
					ErrTooManyReplicas, op.Replica, cluster.NumDevices())
			}
			place[op.ID] = op.Replica
		default:
			place[op.ID] = 0 // shared sync ops aggregate on GPU 0
		}
	}
	// Apply colocation constraints (e.g. ApplyGradient with its variable).
	for _, op := range g.Ops() {
		if op.ColocateWith == "" {
			continue
		}
		if target, ok := g.OpByName(op.ColocateWith); ok {
			place[op.ID] = place[target.ID]
		}
	}
	return place, nil
}

// ModelParallel partitions a graph over the cluster layer-wise: forward
// operations are cut in topological order into contiguous memory-balanced
// stages (one per device); each backward operation follows the stage of the
// forward op whose activation it consumes, as real layer-wise model
// parallelism does; shared variables land with their first consumer, and
// colocation constraints (AddN/ApplyGradient with their variable) are then
// applied. This is the paper's start strategy for models too large for one
// GPU.
func ModelParallel(g *graph.Graph, cluster *device.Cluster) ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	isStaged := func(op *graph.Op) bool {
		return !graph.IsBackwardKind(op.Kind) && op.Kind != graph.KindVariable
	}
	var total int64
	for _, op := range g.Ops() {
		total += op.ResidentBytes()
	}
	if total > cluster.TotalMemory() {
		return nil, fmt.Errorf("%w: need %d bytes, have %d",
			ErrDoesNotFit, total, cluster.TotalMemory())
	}
	var stagedTotal int64
	for _, op := range g.Ops() {
		if isStaged(op) {
			stagedTotal += op.ResidentBytes()
		}
	}

	n := cluster.NumDevices()
	// Front-load earlier stages slightly: the last stage additionally
	// carries the loss/projection outputs and the first backward ops'
	// transients, so an even cut leaves it the peak-memory hotspot.
	budget := int64(1.05 * float64(stagedTotal) / float64(n))
	place := make([]int, g.NumOps())
	for i := range place {
		place[i] = -1
	}
	dev := 0
	var used int64
	for _, id := range order {
		op := g.Op(id)
		if !isStaged(op) {
			continue
		}
		need := op.ResidentBytes()
		if dev < n-1 && used > 0 && used+need > budget {
			dev++
			used = 0
		}
		place[id] = dev
		used += need
	}
	// Backward ops follow the stage of the forward op they mirror (the
	// producer of the activation they consume); variables land with their
	// first staged consumer.
	for _, id := range order {
		if place[id] >= 0 {
			continue
		}
		place[id] = followStage(g, place, id)
	}
	// Colocation constraints override.
	for _, op := range g.Ops() {
		if op.ColocateWith == "" {
			continue
		}
		if target, ok := g.OpByName(op.ColocateWith); ok && place[target.ID] >= 0 {
			place[op.ID] = place[target.ID]
		}
	}
	return place, nil
}

// followStage picks a device for a non-staged op: the stage of a forward
// predecessor if any, else any placed predecessor, else the stage of its
// first placed successor (variables), else device 0.
func followStage(g *graph.Graph, place []int, id int) int {
	var fallback = -1
	for _, p := range g.Predecessors(id) {
		if place[p] < 0 {
			continue
		}
		if !graph.IsBackwardKind(g.Op(p).Kind) {
			return place[p]
		}
		if fallback < 0 {
			fallback = place[p]
		}
	}
	if fallback >= 0 {
		return fallback
	}
	for _, s := range g.Successors(id) {
		if place[s] >= 0 {
			return place[s]
		}
	}
	return 0
}

// SingleDevice places every op on device 0 (the 1-GPU baseline columns of
// Tables 1 and 2).
func SingleDevice(g *graph.Graph) []int {
	return make([]int, g.NumOps())
}
