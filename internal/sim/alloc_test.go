package sim

import (
	"testing"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
	"fastt/internal/placement"
)

// TestRunAllocationsDoNotScaleWithEdges pins the engine's allocations: a
// run allocates its state, its result and the amortised growth of a few
// slices and maps, never once per op or edge. Both disciplines are pinned,
// since Priority routes transfers through the urgency bookkeeping too.
func TestRunAllocationsDoNotScaleWithEdges(t *testing.T) {
	cluster, err := device.SingleServer(4)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	spec, err := models.ByName("ResNet50")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	m, err := spec.Build(16)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	g, err := graph.BuildDataParallel(m, 4)
	if err != nil {
		t.Fatalf("BuildDataParallel: %v", err)
	}
	place, err := placement.DataParallel(g, cluster)
	if err != nil {
		t.Fatalf("DataParallel: %v", err)
	}
	priorities := make([]int, g.NumOps())
	for i := range priorities {
		priorities[i] = len(priorities) - i
	}
	engine := NewEngine(cluster, kernels.NewDefaultOracle(cluster))
	for _, cfg := range []Config{{}, {Discipline: Priority, Priorities: priorities}} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := engine.Run(g, place, cfg); err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
		// A run allocates about a hundred times today; allocating per
		// edge would cost at least one per edge.
		if limit := float64(g.NumEdges()) / 10; allocs > limit {
			t.Errorf("discipline %d: %.0f allocations per run of %d ops and %d edges, want at most %.0f",
				cfg.Discipline, allocs, g.NumOps(), g.NumEdges(), limit)
		}
		t.Logf("discipline %d: %.0f allocations per run of %d ops and %d edges", cfg.Discipline, allocs, g.NumOps(), g.NumEdges())
	}
}
