// Warm-start property tests: the Options.Seed contract of OS-DPOS
// (internal/core) verified catalog-wide, against the real model zoo rather
// than synthetic graphs, because the guarantee callers build on is global:
//
//  1. a seeded search is never worse than the seed's re-evaluated makespan;
//  2. whenever the seed does not win, the seeded artifact is byte-identical
//     to the cold one — seeding only tightens the pruning bound, it cannot
//     steer the walk — so its makespan then also equals cold's. When the
//     seed wins, the result is the seed itself: usually at or below cold's
//     (the fast exit), but a cold walk may end a hair below the seed by
//     passing through intermediate states the seed bound prunes (GNMT and
//     VGG-19 shrink land in this corner, within 0.3%) — the placement-time
//     trade the warm start exists to make, see DESIGN.md §9;
//  3. the result is identical across worker counts, exactly like the cold
//     search;
//  4. a seed for a different base graph is rejected with
//     strategy.ErrFingerprint.
package fastt

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"fastt/internal/core"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
	"fastt/internal/strategy"
)

// warmstartGraph builds the 4-replica data-parallel training graph the
// property tests search over: big enough to have real split candidates and
// gradient-sync groups, small enough to search dozens of times per model.
func warmstartGraph(t *testing.T, spec models.Spec) *graph.Graph {
	t.Helper()
	perReplica := spec.GlobalBatch / 4
	if perReplica < 1 {
		perReplica = 1
	}
	m, err := spec.Build(perReplica)
	if err != nil {
		t.Fatalf("build %s: %v", spec.Name, err)
	}
	g, err := graph.BuildDataParallel(m, 4)
	if err != nil {
		t.Fatalf("replicate %s: %v", spec.Name, err)
	}
	return g
}

func artifactBytes(t *testing.T, st *core.Strategy) string {
	t.Helper()
	b, err := json.Marshal(&st.Artifact)
	if err != nil {
		t.Fatalf("marshal artifact: %v", err)
	}
	return string(b)
}

// TestWarmstartProperties checks properties 1-3 for every catalog model
// across the three cluster cases a session recomputes for (same cluster,
// one device lost, one device joined), across Workers {1,4,8}. `-short`
// keeps the walk shallower and trims the worker sweep so the -race tier
// stays fast; the full run is catalog-wide at full depth.
func TestWarmstartProperties(t *testing.T) {
	workerSweep := []int{1, 4, 8}
	maxSplitOps := 4
	if testing.Short() {
		// Keep the catalog but shallow the walk; Workers=8 stays, as the
		// concurrent path is what the -race tier is there to exercise.
		workerSweep = []int{1, 8}
		maxSplitOps = 2
	}

	base, err := device.SingleServer(4)
	if err != nil {
		t.Fatal(err)
	}
	shrunk, _, err := base.Without(3)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := device.SingleServer(5)
	if err != nil {
		t.Fatal(err)
	}

	for _, spec := range models.Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			g := warmstartGraph(t, spec)
			opts := core.Options{MaxSplitOps: maxSplitOps, MaxSyncGroups: 4, Workers: 1}
			seedSt, err := core.ComputeStrategy(g, base, kernels.NewDefaultOracle(base), opts)
			if err != nil {
				t.Fatalf("seed search: %v", err)
			}
			seed := &seedSt.Artifact

			for _, target := range []struct {
				name    string
				cluster *device.Cluster
			}{
				{"same-cluster", base},
				{"shrink-by-1", shrunk},
				{"grow-by-1", grown},
			} {
				est := kernels.NewDefaultOracle(target.cluster)
				cold, err := core.ComputeStrategy(g, target.cluster, est, opts)
				if err != nil {
					t.Fatalf("%s: cold: %v", target.name, err)
				}
				coldBytes := artifactBytes(t, cold)

				firstBytes := ""
				for _, w := range workerSweep {
					o := opts
					o.Workers = w
					o.Seed = seed
					seeded, err := core.ComputeStrategy(g, target.cluster, est, o)
					if err != nil {
						t.Fatalf("%s workers=%d: seeded: %v", target.name, w, err)
					}
					label := fmt.Sprintf("%s workers=%d", target.name, w)
					if !seeded.Seeded {
						t.Fatalf("%s: seed was not applied", label)
					}
					if seeded.SeedBound <= 0 {
						t.Errorf("%s: SeedBound = %v, want > 0", label, seeded.SeedBound)
					}
					// Property 1: never worse than the seed's exact
					// re-evaluated makespan.
					if seeded.Predicted > seeded.SeedBound {
						t.Errorf("%s: predicted %v worse than seed bound %v",
							label, seeded.Predicted, seeded.SeedBound)
					}
					sb := artifactBytes(t, seeded)
					// Property 2: seeding only prunes — when any
					// candidate beat the seed, the artifact is the cold
					// one, byte for byte (and so no worse than cold);
					// when the seed won, the result is exactly the
					// re-evaluated seed.
					if !seeded.SeedWon {
						if sb != coldBytes {
							t.Errorf("%s: seed lost but artifact differs from cold", label)
						}
						if seeded.Predicted > cold.Predicted {
							t.Errorf("%s: seed lost but predicted %v worse than cold %v",
								label, seeded.Predicted, cold.Predicted)
						}
					} else if seeded.Predicted != seeded.SeedBound {
						t.Errorf("%s: seed won but predicted %v != seed bound %v",
							label, seeded.Predicted, seeded.SeedBound)
					}
					// Property 3: deterministic across workers, like the
					// cold search.
					if firstBytes == "" {
						firstBytes = sb
					} else if sb != firstBytes {
						t.Errorf("%s: artifact differs across worker counts", label)
					}
				}
			}
		})
	}
}

// TestWarmstartFingerprintMismatch checks property 4: a seed computed for a
// different base graph must be rejected, not silently searched with.
func TestWarmstartFingerprintMismatch(t *testing.T) {
	lenet, err := models.ByName("LeNet")
	if err != nil {
		t.Fatal(err)
	}
	alexnet, err := models.ByName("AlexNet")
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := device.SingleServer(4)
	if err != nil {
		t.Fatal(err)
	}
	g := warmstartGraph(t, lenet)
	other := warmstartGraph(t, alexnet)
	opts := core.Options{MaxSplitOps: 1, MaxSyncGroups: 4, Workers: 1}
	est := kernels.NewDefaultOracle(cluster)
	seedSt, err := core.ComputeStrategy(other, cluster, est, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = &seedSt.Artifact
	if _, err := core.ComputeStrategy(g, cluster, est, opts); !errors.Is(err, strategy.ErrFingerprint) {
		t.Fatalf("seed for a different graph: err = %v, want strategy.ErrFingerprint", err)
	}
}
