package validate

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"fastt/internal/core"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
)

// randomModelGraph builds a random layered DAG with realistic op kinds and
// occasionally a parameterized op + gradient pair, so colocation and sync
// structures appear.
func randomModelGraph(rng *rand.Rand) *graph.Graph {
	g := graph.New()
	n := rng.Intn(20) + 4
	kinds := []graph.OpKind{
		graph.KindConv2D, graph.KindMatMul, graph.KindRelu,
		graph.KindMaxPool, graph.KindSoftmax, graph.KindIdentity,
	}
	for i := 0; i < n; i++ {
		op := &graph.Op{
			Name:        fmt.Sprintf("op%d", i),
			Kind:        kinds[rng.Intn(len(kinds))],
			FLOPs:       rng.Int63n(1e9) + 1e5,
			OutputBytes: rng.Int63n(1<<20) + 1,
			Batch:       8,
			Channels:    16,
		}
		if rng.Intn(4) == 0 {
			op.ParamBytes = rng.Int63n(8 << 20)
		}
		g.MustAddOp(op)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				g.MustConnect(i, j, rng.Int63n(1<<19)+1)
			}
		}
	}
	return g
}

// TestDPOSAlwaysProducesValidSchedules is the cross-package property test:
// for random graphs, clusters and both strategy entry points, the result
// must pass every structural validation.
func TestDPOSAlwaysProducesValidSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 40; trial++ {
		g := randomModelGraph(rng)
		servers := rng.Intn(2) + 1
		perServer := rng.Intn(3) + 1
		cluster, err := device.NewCluster(servers, perServer)
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		oracle := kernels.NewDefaultOracle(cluster)
		opts := core.Options{MaxSplitOps: 2, MaxSyncGroups: 2}

		full, err := core.ComputeStrategy(g, cluster, oracle, opts)
		if err != nil {
			t.Fatalf("trial %d: ComputeStrategy: %v", trial, err)
		}
		if err := Strategy(full, cluster, Options{SkipMemory: true}); err != nil {
			t.Errorf("trial %d: full strategy invalid: %v", trial, err)
		}

		placeOnly, err := core.ComputePlacementOnlyCtx(context.Background(), g, cluster, oracle, opts)
		if err != nil {
			t.Fatalf("trial %d: ComputePlacementOnlyCtx: %v", trial, err)
		}
		if err := Strategy(placeOnly, cluster, Options{SkipMemory: true}); err != nil {
			t.Errorf("trial %d: placement-only strategy invalid: %v", trial, err)
		}
	}
}

// TestUnrolledGraphsScheduleValidly chains the loop-unrolling substrate
// into the property: cyclic graphs unrolled to DAGs must schedule and
// validate.
func TestUnrolledGraphsScheduleValidly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		g := graph.New()
		in := g.MustAddOp(&graph.Op{Name: "in", Kind: graph.KindInput, OutputBytes: 1 << 10, Batch: 4})
		cell := g.MustAddOp(&graph.Op{
			Name: "cell", Kind: graph.KindLSTMCell, FLOPs: rng.Int63n(1e8) + 1e5,
			OutputBytes: 1 << 12, Batch: 4, Channels: 32,
		})
		st := g.MustAddOp(&graph.Op{Name: "st", Kind: graph.KindIdentity, OutputBytes: 1 << 12, Batch: 4})
		out := g.MustAddOp(&graph.Op{Name: "out", Kind: graph.KindLoss, OutputBytes: 4, Batch: 4})
		g.MustConnect(in, cell, 1<<10)
		g.MustConnect(cell, st, 1<<12)
		g.MustConnect(st, cell, 1<<12)
		g.MustConnect(st, out, 1<<12)

		trips := rng.Intn(10) + 1
		dag, err := graph.Unroll(g, trips)
		if err != nil {
			t.Fatalf("trial %d: Unroll: %v", trial, err)
		}
		cluster, err := device.SingleServer(2)
		if err != nil {
			t.Fatalf("SingleServer: %v", err)
		}
		strategy, err := core.ComputeStrategy(dag, cluster,
			kernels.NewDefaultOracle(cluster), core.Options{MaxSplitOps: 1})
		if err != nil {
			t.Fatalf("trial %d: ComputeStrategy: %v", trial, err)
		}
		if err := Strategy(strategy, cluster, Options{SkipMemory: true}); err != nil {
			t.Errorf("trial %d (trips=%d): %v", trial, trips, err)
		}
	}
}
