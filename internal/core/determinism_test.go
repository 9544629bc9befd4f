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

// TestOSDPOSDeterminismMatrix is the catalog-wide determinism property of
// the search: byte-identical committed strategies across Workers ∈
// {1, 2, 4, 8} × pruning {on, off}. The Workers=1 pruning-on configuration
// is the sequential reference; every other cell must reproduce it exactly (pruning changes which candidates
// finish, never which one wins — TestOSDPOSIncrementalEquivalence pins the
// pruning-off reference itself to the unpruned clone path).
func TestOSDPOSDeterminismMatrix(t *testing.T) {
	const gpus = 4
	cluster, err := device.SingleServer(gpus)
	if err != nil {
		t.Fatal(err)
	}
	oracle := kernels.NewDefaultOracle(cluster)
	catalog := models.Catalog()
	workerSet := []int{1, 2, 4, 8}
	if testing.Short() {
		catalog = catalog[:3]
		workerSet = []int{1, 8}
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
			base := Options{MaxSplitOps: 2}
			ref, err := OSDPOS(g, cluster, oracle, base)
			if err != nil {
				t.Fatalf("reference OSDPOS: %v", err)
			}
			for _, w := range workerSet {
				for _, prune := range []bool{false, true} {
					opts := base
					opts.Workers = w
					opts.DisablePruning = !prune
					got, err := OSDPOS(g, cluster, oracle, opts)
					if err != nil {
						t.Fatalf("w=%d prune=%v: %v", w, prune, err)
					}
					assertSameStrategy(t, fmt.Sprintf("w=%d prune=%v", w, prune), ref, got)
				}
			}
		})
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
