package core

import (
	"bytes"
	"fmt"
	"testing"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
)

// assertSameStrategy fails unless the two OS-DPOS results carry identical
// committed strategies: split list, makespan, placement, order, priorities.
func assertSameStrategy(t *testing.T, label string, ref, got *SplitResult) {
	t.Helper()
	if len(ref.Splits) != len(got.Splits) {
		t.Fatalf("%s: split lists differ: %v vs %v", label, ref.Splits, got.Splits)
	}
	for i := range ref.Splits {
		if ref.Splits[i] != got.Splits[i] {
			t.Fatalf("%s: split %d differs: %v vs %v", label, i, ref.Splits[i], got.Splits[i])
		}
	}
	if ref.Schedule.Makespan != got.Schedule.Makespan {
		t.Errorf("%s: makespan %v, want %v", label, got.Schedule.Makespan, ref.Schedule.Makespan)
	}
	if !equalInts(ref.Schedule.Placement, got.Schedule.Placement) {
		t.Errorf("%s: placements differ", label)
	}
	if !equalInts(ref.Schedule.Order, got.Schedule.Order) {
		t.Errorf("%s: orders differ", label)
	}
	if !equalInts(ref.Schedule.Priorities, got.Schedule.Priorities) {
		t.Errorf("%s: priorities differ", label)
	}
}

// TestOSDPOSDeterminismMatrix is the catalog-wide exactness property of
// the search on one 4-GPU server: at every worker count, OSDPOS must return
// the strategy of osdposOracle — the literal sequential Alg. 2 over clones,
// a direct estimator and no bound — byte for byte (split list, makespan,
// placement, order, priorities). Overlays, lattice extension, comm-class
// sharing, delta ranks and pruning are pure accelerations: they may only
// shrink the work, never change the answer, and pruning must actually fire
// somewhere in the catalog.
func TestOSDPOSDeterminismMatrix(t *testing.T) {
	cluster, err := device.SingleServer(4)
	if err != nil {
		t.Fatal(err)
	}
	workerSet := []int{1, 2, 4, 8}
	if testing.Short() {
		workerSet = []int{1, 8}
	}
	matchOSDPOSOracle(t, cluster, workerSet)
}

// matchOSDPOSOracle runs the oracle comparison of TestOSDPOSDeterminismMatrix
// on every catalog model (-short: the first three) data-parallel over
// cluster, at each worker count in workerSet.
func matchOSDPOSOracle(t *testing.T, cluster *device.Cluster, workerSet []int) {
	t.Helper()
	gpus := cluster.NumDevices()
	oracle := kernels.NewDefaultOracle(cluster)
	catalog := models.Catalog()
	if testing.Short() {
		catalog = catalog[:3]
	}
	totalPruned := 0
	for _, spec := range catalog {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m, err := spec.Build(4)
			if err != nil {
				t.Fatal(err)
			}
			g, err := graph.BuildDataParallel(m, gpus)
			if err != nil {
				t.Fatal(err)
			}
			base := Options{MaxSplitOps: 2}
			want, err := osdposOracle(g, cluster, oracle, base)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			for _, w := range workerSet {
				opts := base
				opts.Workers = w
				got, err := OSDPOS(g, cluster, oracle, opts)
				if err != nil {
					t.Fatalf("w=%d: %v", w, err)
				}
				label := fmt.Sprintf("w=%d", w)
				assertSameStrategy(t, label, want, got)
				if got.Evaluated > want.Evaluated {
					t.Errorf("%s: Evaluated=%d exceeds the oracle's %d", label, got.Evaluated, want.Evaluated)
				}
				if w == 1 && got.Evaluated+got.Pruned > want.Evaluated {
					// The sequential static bound only ever aborts
					// candidates the oracle completes. The live bound of
					// the concurrent path can also abort would-be-
					// infeasible candidates mid-run, so the sum is not
					// comparable there.
					t.Errorf("%s: Evaluated+Pruned=%d exceeds the oracle's Evaluated=%d",
						label, got.Evaluated+got.Pruned, want.Evaluated)
				}
				totalPruned += got.Pruned
			}
		})
	}
	if totalPruned == 0 {
		t.Error("bound-based pruning never fired across the catalog")
	}
}

// TestComputeStrategyWorkerDeterminism covers the whole pipeline — the
// concurrent ColocateSync pass plus the concurrent OS-DPOS search — at the
// artifact level: the serialized strategy must be byte-identical across
// worker counts.
func TestComputeStrategyWorkerDeterminism(t *testing.T) {
	const gpus = 4
	cluster, err := device.SingleServer(gpus)
	if err != nil {
		t.Fatal(err)
	}
	oracle := kernels.NewDefaultOracle(cluster)
	catalog := models.Catalog()
	if testing.Short() {
		catalog = catalog[:2]
	}
	for _, spec := range catalog {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m, err := spec.Build(4)
			if err != nil {
				t.Fatal(err)
			}
			g, err := graph.BuildDataParallel(m, gpus)
			if err != nil {
				t.Fatal(err)
			}
			base := Options{MaxSplitOps: 2, MaxSyncGroups: 2, Workers: 1}
			ref, err := ComputeStrategy(g, cluster, oracle, base)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := ref.Artifact.WriteJSON(&want); err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 8} {
				opts := base
				opts.Workers = w
				got, err := ComputeStrategy(g, cluster, oracle, opts)
				if err != nil {
					t.Fatalf("w=%d: %v", w, err)
				}
				var buf bytes.Buffer
				if err := got.Artifact.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want.Bytes(), buf.Bytes()) {
					t.Errorf("w=%d: artifact bytes differ from sequential", w)
				}
			}
		})
	}
}
