package main

import (
	"bytes"
	"fmt"
	"time"

	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/models"
	"fastt/internal/placement"
	"fastt/internal/runtime"
	"fastt/internal/sim"
	"fastt/internal/strategy"
)

const (
	// jitter is the simulator's measurement noise, the session default.
	jitter = 0.02
	// iters is how many simulated iterations a training run, and each side
	// of a speedup measurement, averages.
	iters = 5
)

// shape is the regular cluster shape of servers × gpus V100s.
func shape(servers, gpus int) strategy.ClusterShape {
	return strategy.ClusterShape{Servers: servers, GPUsPerServer: gpus}
}

// catalogGraph builds spec's data-parallel training graph for a global
// batch split over one server of gpus GPUs, and that server's cluster.
func catalogGraph(spec models.Spec, gpus, global int) (*device.Cluster, *graph.Graph, error) {
	cluster, err := device.NewCluster(1, gpus)
	if err != nil {
		return nil, nil, err
	}
	m, err := spec.Build(max(global/gpus, 1))
	if err != nil {
		return nil, nil, fmt.Errorf("build %s: %w", spec.Name, err)
	}
	g, err := graph.BuildDataParallel(m, gpus)
	if err != nil {
		return nil, nil, fmt.Errorf("replicate %s: %w", spec.Name, err)
	}
	return cluster, g, nil
}

// dpArtifact is the data-parallel placement of g on cluster as an artifact.
func dpArtifact(g *graph.Graph, cluster *device.Cluster) (*strategy.Artifact, error) {
	place, err := placement.DataParallel(g, cluster)
	if err != nil {
		return nil, err
	}
	prov := strategy.Provenance{Origin: "data-parallel", Cluster: strategy.ClusterShapeOf(cluster)}
	return strategy.New(g, place, nil, nil, 0, prov), nil
}

// simIteration is art's mean simulated iteration time over iters jittered
// runs of its materialized graph g, executing the artifact's order.
func simIteration(exec runtime.Executor, g *graph.Graph, art *strategy.Artifact, seed int64) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < iters; i++ {
		res, err := exec.Run(g, art, runtime.Config{Jitter: jitter, Seed: seed + int64(i), EnforceOrder: true})
		if err != nil {
			return 0, err
		}
		total += res.Makespan
	}
	return total / iters, nil
}

// speedup simulates art and the data-parallel placement of its base graph
// on cluster, and returns data-parallel ÷ art iteration time.
func speedup(base *graph.Graph, art *strategy.Artifact, cluster *device.Cluster, seed int64) (float64, error) {
	exec := sim.DefaultExecutor(cluster)
	dp, err := dpArtifact(base, cluster)
	if err != nil {
		return 0, err
	}
	dpIter, err := simIteration(exec, base, dp, seed)
	if err != nil {
		return 0, fmt.Errorf("data-parallel: %w", err)
	}
	g, err := art.Materialize(base)
	if err != nil {
		return 0, err
	}
	it, err := simIteration(exec, g, art, seed)
	if err != nil {
		return 0, err
	}
	return float64(dpIter) / float64(it), nil
}

// profileCosts runs one jittered iteration of art and returns the cost
// model learned from it as JSON: what a session client holds after its
// first profiling round.
func profileCosts(exec runtime.Executor, g *graph.Graph, art *strategy.Artifact, cluster *device.Cluster, seed int64) ([]byte, error) {
	res, err := exec.Run(g, art, runtime.Config{Jitter: jitter, Seed: seed})
	if err != nil {
		return nil, err
	}
	m := cost.NewModel(cluster)
	for _, s := range res.Spans {
		m.Comp.Observe(g.Op(s.Op).Name, s.Device, s.End-s.Start)
	}
	for _, tr := range res.Transfers {
		m.Link.Observe(tr.From, tr.To, tr.Bytes, tr.End-tr.Start)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
