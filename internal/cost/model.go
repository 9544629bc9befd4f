package cost

import (
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/runtime"
)

// Model bundles the computation and communication cost models into the
// Estimator the scheduling algorithms consume — the "cost models" component
// of the FastT architecture (Fig. 1).
type Model struct {
	Comp *CompModel
	Link *CommModel
}

var _ Estimator = (*Model)(nil)

// NewModel returns empty cost models for the cluster.
func NewModel(cluster *device.Cluster) *Model {
	return &Model{
		Comp: NewCompModelFor(cluster),
		Link: NewCommModel(cluster),
	}
}

// ObserveRun feeds one profiled iteration of g — its spans and transfers,
// the RunMetadata a runtime.Executor returns — into both models: one lock
// and one snapshot drop per model, and each (op, device) key resolved once
// per graph version rather than hashed per span. The models end exactly
// where per-span Comp.Observe and per-transfer Link.Observe calls in the
// same order would leave them.
func (m *Model) ObserveRun(g *graph.Graph, res *runtime.Result) {
	m.Comp.observeSpans(g, res.Spans)
	m.Link.observeTransfers(res.Transfers)
}

// Exec predicts the run time of op on dev through the computation model's
// memoised snapshot.
func (m *Model) Exec(op *graph.Op, dev *device.Device) time.Duration {
	return m.Comp.Snapshot().Exec(op, dev)
}

// Comm predicts the transfer time between devices through the
// communication model's memoised snapshot.
func (m *Model) Comm(bytes int64, from, to *device.Device) time.Duration {
	return m.Link.Snapshot().Comm(bytes, from, to)
}

// EstimatorSnapshot is an immutable Estimator frozen from a Model: both
// sub-model snapshots taken together so a whole strategy calculation reads
// one consistent, lock-free view of the cost models.
type EstimatorSnapshot struct {
	Comp *CompSnapshot
	Link *CommSnapshot
}

var _ Estimator = (*EstimatorSnapshot)(nil)

// Exec predicts the run time of op on dev from the frozen computation model.
func (s *EstimatorSnapshot) Exec(op *graph.Op, dev *device.Device) time.Duration {
	return s.Comp.Exec(op, dev)
}

// Comm predicts the transfer time from the frozen communication model.
func (s *EstimatorSnapshot) Comm(bytes int64, from, to *device.Device) time.Duration {
	return s.Link.Comm(bytes, from, to)
}

// ReadSnapshot returns an Estimator safe for lock-free concurrent reads: a
// learned Model's memoised snapshots, otherwise est itself. Strategy
// calculators call this once per calculation before fanning work out to
// worker goroutines.
func ReadSnapshot(est Estimator) Estimator {
	if m, ok := est.(*Model); ok {
		return &EstimatorSnapshot{Comp: m.Comp.Snapshot(), Link: m.Link.Snapshot()}
	}
	return est
}
