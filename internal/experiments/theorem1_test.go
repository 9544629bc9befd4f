package experiments

import (
	"fmt"
	"testing"
	"time"

	"fastt/internal/core"
	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
	"fastt/internal/optimal"
)

// theorem1Check asserts the paper's Theorem 1 on a finished strategy:
// omega_OSDPOS <= 2*omega_opt + C_max, instantiated with the reference
// lower bound LB <= omega_opt of the strategy's final materialized graph.
// The instantiation is conservative twice over — LB is at most omega_opt,
// and Predicted includes communication the ideal system does not — so a
// failure is a genuine violation, never a loose oracle.
func theorem1Check(t *testing.T, label string, st *core.Strategy,
	cluster *device.Cluster, est cost.Estimator) (lb, cmax time.Duration) {
	t.Helper()
	res, err := optimal.Bound(st.Graph, cluster, est, optimal.BoundOptions{})
	if err != nil {
		t.Fatalf("%s: Bound: %v", label, err)
	}
	if res.LowerBound <= 0 {
		t.Fatalf("%s: no valid lower bound (method %s)", label, res.Method)
	}
	ranks, err := core.ComputeRanks(st.Graph, cluster, est)
	if err != nil {
		t.Fatalf("%s: ranks: %v", label, err)
	}
	cmax = core.MaxChainComm(st.Graph, ranks)
	if rhs := 2*res.LowerBound + cmax; st.Predicted > rhs {
		t.Errorf("%s: Theorem 1 violated: predicted %v > 2*%v + %v = %v",
			label, st.Predicted, res.LowerBound, cmax, rhs)
	}
	return res.LowerBound, cmax
}

// TestTheorem1CatalogWide is the catalog-wide Theorem-1 property test: for
// every catalog model × {2,4,8} GPUs the OS-DPOS strategy must respect
// omega_OSDPOS <= 2*LB_ideal + C_max against the scalable reference bound.
func TestTheorem1CatalogWide(t *testing.T) {
	catalog := allCatalogModels()
	gpuCounts := []int{2, 4, 8}
	if testing.Short() {
		catalog = []string{"LeNet", "AlexNet", "VGG-19", "Transformer"}
		gpuCounts = []int{2, 8}
	}
	for _, model := range catalog {
		model := model
		t.Run(model, func(t *testing.T) {
			for _, gpus := range gpuCounts {
				train := catalogTrainGraph(t, model, gpus)
				cluster, err := device.SingleServer(gpus)
				if err != nil {
					t.Fatal(err)
				}
				est := kernels.NewDefaultOracle(cluster)
				st, err := core.ComputeStrategy(train, cluster, est, heteroTestOpts(0))
				if err != nil {
					t.Fatalf("%d GPUs: ComputeStrategy: %v", gpus, err)
				}
				theorem1Check(t, fmt.Sprintf("%s @ %d GPUs", model, gpus), st, cluster, est)
			}
		})
	}
}

// TestTheorem1AcrossWorkers sweeps Workers {1,4,8} on a small-model
// subset. Strategies are byte-identical across worker counts (the
// determinism suite pins that), so the bound and C_max are computed once
// per model from the Workers=1 strategy and every worker count is checked
// against them — the sweep exercises the parallel search paths under the
// theorem, not redundant bound computations.
func TestTheorem1AcrossWorkers(t *testing.T) {
	catalog := []string{"LeNet", "AlexNet", "VGG-19"}
	workerCounts := []int{1, 4, 8}
	if testing.Short() {
		catalog = []string{"LeNet", "AlexNet"}
		workerCounts = []int{1, 4}
	}
	const gpus = 4
	for _, model := range catalog {
		model := model
		t.Run(model, func(t *testing.T) {
			train := catalogTrainGraph(t, model, gpus)
			cluster, err := device.SingleServer(gpus)
			if err != nil {
				t.Fatal(err)
			}
			est := kernels.NewDefaultOracle(cluster)

			var lb, cmax time.Duration
			for _, workers := range workerCounts {
				st, err := core.ComputeStrategy(train, cluster, est, heteroTestOpts(workers))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if lb == 0 {
					lb, cmax = theorem1Check(t,
						fmt.Sprintf("%s workers=%d", model, workers), st, cluster, est)
					continue
				}
				if rhs := 2*lb + cmax; st.Predicted > rhs {
					t.Errorf("workers=%d: Theorem 1 violated: %v > %v", workers, st.Predicted, rhs)
				}
			}
		})
	}
}

// TestTheorem1MixedCluster checks the theorem on the heterogeneous
// 4xV100+4xT4 mix: the classed capacity terms of the bound must stay valid
// when the fleet's device classes differ.
func TestTheorem1MixedCluster(t *testing.T) {
	mixed, err := device.NewHeterogeneous(heteroMixSpec())
	if err != nil {
		t.Fatal(err)
	}
	catalog := []string{"LeNet", "AlexNet", "Transformer", "Bert-large"}
	if testing.Short() {
		catalog = []string{"LeNet", "Transformer"}
	}
	for _, model := range catalog {
		model := model
		t.Run(model, func(t *testing.T) {
			train := heteroTestGraph(t, model)
			est := kernels.NewDefaultOracle(mixed)
			st, err := core.ComputeStrategy(train, mixed, est, heteroTestOpts(0))
			if err != nil {
				t.Fatalf("ComputeStrategy: %v", err)
			}
			theorem1Check(t, model+" on V100+T4 mix", st, mixed, est)
		})
	}
}

// catalogTrainGraph builds the model's data-parallel training graph at the
// strong-scaling per-GPU batch for the given device count — the same shape
// the gap table measures.
func catalogTrainGraph(t *testing.T, model string, gpus int) *graph.Graph {
	t.Helper()
	spec, err := models.ByName(model)
	if err != nil {
		t.Fatalf("%s: %v", model, err)
	}
	perGPU, _ := batches(spec, Strong, gpus, 0)
	m, err := spec.Build(perGPU)
	if err != nil {
		t.Fatalf("%s build: %v", model, err)
	}
	train, err := graph.BuildDataParallel(m, gpus)
	if err != nil {
		t.Fatalf("%s replicate: %v", model, err)
	}
	return train
}
