package sim

import (
	"errors"
	"fmt"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/runtime"
	"fastt/internal/strategy"
)

// Executor adapts the simulator to the runtime.Executor seam: it runs a
// materialized graph under a strategy artifact's placement and — when order
// enforcement is on and the artifact carries one — its execution order.
//
// It also injects a deterministic fault schedule across iterations (SetPlan;
// none by default). It keeps a cumulative training-timeline clock (the
// epoch): each Run starts at the current epoch, so faults anchored to
// absolute times fire in the right iteration no matter how the caller slices
// the run. Device failures abort the offending Run with a
// runtime.DeviceLostError; Shrink then yields the degraded executor with the
// surviving schedule, and Grow the executor for an enlarged cluster.
type Executor struct {
	engine   *Engine
	plan     *FaultPlan
	epoch    time.Duration
	reported []bool // per plan-fault index: already surfaced in a Result
}

var (
	_ runtime.DegradableExecutor = (*Executor)(nil)
	_ runtime.GrowableExecutor   = (*Executor)(nil)
)

// NewExecutor returns a simulator-backed executor for the cluster.
func NewExecutor(cluster *device.Cluster, oracle *kernels.Oracle) *Executor {
	return &Executor{engine: NewEngine(cluster, oracle)}
}

// DefaultExecutor returns a simulator-backed executor with the default
// kernel oracle — the standard backend for sessions and the CLI.
func DefaultExecutor(cluster *device.Cluster) *Executor {
	return NewExecutor(cluster, kernels.NewDefaultOracle(cluster))
}

// WrapEngine adapts an existing engine.
func WrapEngine(e *Engine) *Executor { return &Executor{engine: e} }

// Engine exposes the underlying simulator engine for callers that need
// simulator-specific configuration (disciplines, SharedNIC).
func (x *Executor) Engine() *Engine { return x.engine }

// SetPlan installs (or clears, with nil) the fault schedule. Reporting state
// resets: every fault in the new plan is eligible to surface once. Arming a
// plan after bootstrap lets callers anchor fault times to the post-bootstrap
// epoch — see Epoch.
func (x *Executor) SetPlan(plan *FaultPlan) error {
	if plan != nil {
		if err := plan.Validate(x.engine.cluster.NumDevices()); err != nil {
			return err
		}
	}
	x.plan = plan
	x.reported = nil
	if plan != nil {
		x.reported = make([]bool, len(plan.Faults))
	}
	return nil
}

// Plan returns the installed fault schedule (nil when faults are disabled).
func (x *Executor) Plan() *FaultPlan { return x.plan }

// Epoch returns the executor's position on the training timeline: the
// cumulative simulated time of every iteration run so far plus any Advance
// charges. Fault times are absolute against this clock.
func (x *Executor) Epoch() time.Duration { return x.epoch }

// Advance implements runtime.DegradableExecutor: it charges simulated
// off-iteration time (checkpoint restores, retry backoff) to the timeline.
func (x *Executor) Advance(d time.Duration) {
	if d > 0 {
		x.epoch += d
	}
}

// Run implements runtime.Executor. On success the epoch advances by the
// iteration's makespan and the result carries the non-fatal faults that
// became active during it (each surfaced exactly once across Runs). A device
// failure inside the iteration's window returns a runtime.DeviceLostError
// and advances the epoch to the failure time.
func (x *Executor) Run(g *graph.Graph, art *strategy.Artifact, cfg runtime.Config) (*runtime.Result, error) {
	sc := Config{
		Jitter:     cfg.Jitter,
		Seed:       cfg.Seed,
		Faults:     x.plan,
		FaultEpoch: x.epoch,
	}
	if cfg.EnforceOrder && len(art.Order) > 0 {
		sc.Discipline = Priority
		sc.Priorities = art.PriorityIndex()
	}
	res, err := x.engine.Run(g, art.Placement, sc)
	if err != nil {
		var lost *runtime.DeviceLostError
		if errors.As(err, &lost) && lost.At > x.epoch {
			x.epoch = lost.At
		}
		return nil, err
	}
	x.epoch += res.Makespan
	x.filterFaults(res)
	return res, nil
}

// filterFaults rewrites res.Faults to only the faults that have not been
// surfaced by an earlier Run, and marks them reported. The engine emits every
// active fault each iteration; the executor owns the once-only contract.
func (x *Executor) filterFaults(res *runtime.Result) {
	if x.plan == nil {
		res.Faults = nil
		return
	}
	fresh := res.Faults[:0]
	for i, f := range x.plan.Faults {
		if x.reported[i] || f.runtimeKind() == runtime.FaultDeviceFailure {
			continue
		}
		if f.AtNs < int64(x.epoch) {
			x.reported[i] = true
			fresh = append(fresh, f.Event())
		}
	}
	res.Faults = fresh
}

// Shrink implements runtime.DegradableExecutor: it returns the executor for
// the cluster without failedDevice. The timeline clock, the surviving fault
// schedule (renumbered to the new device IDs) and its reporting state carry
// over, so a straggler already surfaced before the failure does not surface
// again after recovery.
func (x *Executor) Shrink(failedDevice int) (runtime.Executor, *device.Cluster, error) {
	next, mapping, err := x.engine.cluster.Without(failedDevice)
	if err != nil {
		return nil, nil, fmt.Errorf("shrink executor: %w", err)
	}
	nx := &Executor{
		engine: NewEngine(next, x.engine.oracle.WithCluster(next)),
		epoch:  x.epoch,
	}
	if x.plan != nil {
		shrunk, kept := x.plan.shrink(mapping)
		nx.plan = shrunk
		nx.reported = make([]bool, len(shrunk.Faults))
		for newIdx, oldIdx := range kept {
			nx.reported[newIdx] = x.reported[oldIdx]
		}
	}
	return nx, next, nil
}

// Grow implements runtime.GrowableExecutor: it returns the executor for the
// cluster with the joining device appended. Existing device IDs are
// unchanged, so the installed fault schedule and its reporting state carry
// over verbatim — pending faults keep targeting the devices they were
// drawn for, and the joiner starts fault-free. The timeline clock carries
// over too, keeping time-anchored faults aligned across the join.
func (x *Executor) Grow(join device.JoinSpec) (runtime.Executor, *device.Cluster, *device.Device, error) {
	next, joined, err := x.engine.cluster.Grow(join)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("grow executor: %w", err)
	}
	nx := &Executor{
		engine: NewEngine(next, x.engine.oracle.WithCluster(next)),
		plan:   x.plan,
		epoch:  x.epoch,
	}
	if x.reported != nil {
		nx.reported = make([]bool, len(x.reported))
		copy(nx.reported, x.reported)
	}
	return nx, next, joined, nil
}
