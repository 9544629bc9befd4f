// Package sim is the discrete-event execution engine that stands in for the
// TensorFlow dataflow executor running on a multi-GPU testbed. It executes
// a placed computation graph with:
//
//   - one compute stream per GPU (one kernel at a time, like a single CUDA
//     stream);
//   - one copy channel per ordered device pair, so transfers overlap with
//     computation and with transfers on other pairs, but serialize on the
//     same pair;
//   - a ready queue per device drained either FIFO (TensorFlow's default
//     executor policy) or by scheduler-assigned priorities (FastT's order
//     enforcement);
//   - memory accounting: resident parameter/optimizer state plus live
//     activations with consumer-driven lifetimes, producing OOM errors
//     exactly where a 16 GB V100 would produce them.
//
// The engine reports per-op spans and per-transfer records — the
// RunMetadata equivalent FastT's profiler feeds into the cost models — plus
// the compute/memcpy/iteration breakdown of Fig. 5.
package sim

import (
	"errors"
	"fmt"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/runtime"
)

// QueueDiscipline selects how a device drains its ready queue.
type QueueDiscipline int

const (
	// FIFO runs ops in ready order (arrival time, then op ID) — an
	// idealized default executor and the conservative baseline for the
	// speed tables.
	FIFO QueueDiscipline = iota + 1
	// Priority runs the ready op with the smallest assigned priority
	// index — FastT's order enforcement.
	Priority
	// Unordered picks among ready ops in a deterministic but arbitrary
	// (hashed) order, modelling TensorFlow's default executor, whose
	// inter-op thread pool dispatches concurrently-ready nodes in
	// effectively arbitrary order — the execution-order variance the
	// paper's order enforcement eliminates (Fig. 2).
	Unordered
)

// Errors returned by Run.
var (
	// ErrBadPlacement is returned when the placement vector is malformed.
	ErrBadPlacement = errors.New("bad placement")
	// ErrStalled is returned when execution cannot make progress (a bug
	// guard; a valid DAG with a full placement never stalls).
	ErrStalled = errors.New("execution stalled")
)

// The execution result vocabulary (spans, transfers, results, OOM errors)
// lives in internal/runtime, the backend-agnostic home shared by every
// runtime.Executor implementation; the aliases below keep sim's historical
// names working and make sim results directly usable behind the seam.
type (
	// OOMError reports a device exceeding its memory capacity.
	OOMError = runtime.OOMError
	// Span records one op execution — the computation half of RunMetadata.
	Span = runtime.Span
	// Transfer records one tensor movement — the memcpy half of
	// RunMetadata.
	Transfer = runtime.Transfer
	// Result is the outcome of one simulated iteration.
	Result = runtime.Result
)

// Config controls one simulated iteration.
type Config struct {
	// Discipline selects FIFO or Priority ready queues. Zero value means
	// FIFO.
	Discipline QueueDiscipline
	// Priorities maps op ID -> priority index (lower runs first). Required
	// when Discipline is Priority.
	Priorities []int
	// Jitter adds multiplicative uniform noise of ±Jitter to kernel and
	// transfer times, emulating real measurement variance for the cost
	// models to average over. Zero disables noise.
	Jitter float64
	// Seed seeds the jitter generator; runs with equal seeds are
	// reproducible.
	Seed int64
	// DisableMemoryCheck runs without OOM enforcement (used by tests and
	// by what-if analysis).
	DisableMemoryCheck bool
	// SharedNIC models one network interface per server: all transfers
	// between a given pair of servers serialize on one channel instead of
	// one channel per device pair. Off by default (the paper-era testbeds
	// had multiple rails, and the conservative default keeps the DP
	// baseline strong); turn on for congested-network what-if analysis.
	SharedNIC bool
	// Faults injects deterministic mid-run faults: stragglers and link
	// degradations slow the affected work from their activation time on;
	// a device failure aborts the run with a runtime.DeviceLostError at
	// the first event on or after its time. Fault times are absolute on
	// the training timeline; FaultEpoch is this iteration's start on that
	// timeline. Nil disables injection.
	Faults *FaultPlan
	// FaultEpoch is the training-timeline time at which this iteration
	// starts (cumulative makespan of every earlier iteration plus any
	// recovery time the caller charged).
	FaultEpoch time.Duration
}

// Engine executes placed graphs on a cluster with ground-truth latencies
// from the kernel oracle.
type Engine struct {
	cluster *device.Cluster
	oracle  *kernels.Oracle
}

// NewEngine returns an engine for the cluster.
func NewEngine(cluster *device.Cluster, oracle *kernels.Oracle) *Engine {
	return &Engine{cluster: cluster, oracle: oracle}
}

// Cluster returns the engine's cluster.
func (e *Engine) Cluster() *device.Cluster { return e.cluster }

// Run simulates one training iteration of g under the given placement
// (op ID -> device ID) and configuration.
func (e *Engine) Run(g *graph.Graph, placement []int, cfg Config) (*Result, error) {
	if len(placement) != g.NumOps() {
		return nil, fmt.Errorf("%w: have %d entries for %d ops",
			ErrBadPlacement, len(placement), g.NumOps())
	}
	for id, d := range placement {
		if d < 0 || d >= e.cluster.NumDevices() {
			return nil, fmt.Errorf("%w: op %d on device %d", ErrBadPlacement, id, d)
		}
	}
	if cfg.Discipline == 0 {
		cfg.Discipline = FIFO
	}
	if cfg.Discipline == Priority && len(cfg.Priorities) != g.NumOps() {
		return nil, fmt.Errorf("%w: priority list has %d entries for %d ops",
			ErrBadPlacement, len(cfg.Priorities), g.NumOps())
	}
	run := newRunState(e, g, placement, cfg)
	return run.execute()
}
