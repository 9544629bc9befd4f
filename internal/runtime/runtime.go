// Package runtime defines the executor seam between FastT's training
// workflow and the backends that actually run a placed graph. The session
// drives everything through the Executor interface, so the discrete-event
// simulator (internal/sim) and future real backends are interchangeable: a
// backend receives the materialized graph plus the strategy artifact to run
// it under, and returns the per-iteration profile the cost models learn
// from.
package runtime

import (
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/strategy"
)

// Config tunes one execution. It is backend-agnostic: backends ignore what
// does not apply to them.
type Config struct {
	// Jitter adds multiplicative uniform noise of ±Jitter to execution
	// times, emulating real measurement variance. Zero disables noise.
	Jitter float64
	// Seed seeds the noise generator; runs with equal seeds reproduce.
	Seed int64
	// EnforceOrder executes the artifact's recorded order (as executor
	// priorities) instead of the backend's default FIFO discipline —
	// FastT's order enforcement. Ignored when the artifact has no order.
	EnforceOrder bool
}

// Executor runs one training iteration of the materialized graph under the
// artifact's placement (and, when enforced, its execution order). The graph
// must be the artifact's materialized graph — see strategy.Materialize. A
// backend reads only the placement and order, never the fingerprint: a
// session runs its start strategy while the base graph's fingerprint is
// still being hashed, and stamps it afterwards.
type Executor interface {
	Run(g *graph.Graph, art *strategy.Artifact, cfg Config) (*Result, error)
}

// DegradableExecutor is implemented by executors that can continue after a
// device loss — the capability the session's fault recovery needs. A
// backend that cannot shrink simply does not implement it, and DeviceLost
// errors propagate to the caller instead of triggering recovery.
type DegradableExecutor interface {
	Executor
	// Shrink returns an executor and its cluster for the devices surviving
	// the loss of failedDevice, carrying over backend state (clocks,
	// pending fault schedules) so the training timeline stays continuous.
	// Survivors keep their relative order and are renumbered contiguously:
	// old ID d maps to d when d < failedDevice and d-1 when d >
	// failedDevice. Shrinking the last device fails.
	Shrink(failedDevice int) (Executor, *device.Cluster, error)
	// Advance moves the backend's training-timeline clock forward by a
	// simulated duration — checkpoint restores and retry backoff the
	// session charges between iterations — so time-anchored fault
	// schedules stay aligned with the session's accounting. Backends
	// without a clock treat it as a no-op.
	Advance(d time.Duration)
}

// GrowableExecutor is implemented by executors that can absorb a device
// joining mid-run — the inverse of Shrink, and the capability the session's
// elastic scale-out needs. The contract mirrors Shrink's renumbering rule in
// the trivial direction: existing devices keep their IDs (so the running
// strategy stays valid while a replacement is computed), and the joined
// device takes the next free ID, cluster.NumDevices() before the join.
type GrowableExecutor interface {
	Executor
	// Grow returns an executor and cluster with the joining device
	// appended, carrying over backend state (clocks, pending fault
	// schedules) so the training timeline stays continuous. The *Device is
	// the joined device in the returned cluster.
	Grow(join device.JoinSpec) (Executor, *device.Cluster, *device.Device, error)
}
