package core

import (
	"context"
	"time"

	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/optimal"
	"fastt/internal/strategy"
)

// Strategist computes a deployment strategy for a graph on a cluster under a
// cost estimator — the seam through which a session (or any other client)
// reaches the calculator. ComputeStrategyCtx is the direct, in-process
// implementation; the strategy service (internal/serve) provides a cached,
// request-coalescing one, making the session just one client of the service
// path.
type Strategist func(ctx context.Context, g *graph.Graph, cluster *device.Cluster, est cost.Estimator, opts Options) (*Strategy, error)

// Strategy is the full output FastT activates on the executor (Sec. 3):
// the (possibly rewritten) graph, the operation split list, the device
// placement of every (sub-)operation, and the execution order. The
// serializable part — placement, order, splits, predicted makespan, and the
// base-graph fingerprint — is the embedded strategy.Artifact, so every
// computed strategy is a deployment unit; Graph and Priorities are the
// materialized in-memory forms the executor consumes directly.
type Strategy struct {
	// Artifact is the canonical, serializable strategy: Placement, Order,
	// Splits, Predicted, and the fingerprint of the input graph. Callers
	// deploying the strategy fill Artifact.Provenance and persist it.
	strategy.Artifact
	// Graph is the computation graph the placement refers to; it differs
	// from the input model graph when splits were applied. It equals
	// Artifact.Materialize(input graph).
	Graph *graph.Graph
	// Priorities is Order's inverse (op ID -> order index), the form the
	// executor consumes.
	Priorities []int
	// Evaluated and Pruned count the OS-DPOS candidate evaluations run to
	// completion and aborted by the makespan bound, respectively — the
	// work/avoided-work pair behind Table 4's strategy-computation times.
	Evaluated int
	Pruned    int
	// Seeded, SeedBound and SeedWon report the warm start (Options.Seed):
	// whether a prior strategy's exact makespan tightened the search's
	// initial incumbent, what that bound was, and whether the search fell
	// back to the re-materialized seed because no candidate beat it (see
	// SplitResult).
	Seeded    bool
	SeedBound time.Duration
	SeedWon   bool
	// LowerBound, BoundExact, BoundMethod and GapPct report the reference
	// lower bound on the ideal-system optimal makespan of the final
	// materialized graph (optimal.Bound), filled only when
	// Options.ComputeBound is set. BoundExact marks a bound equal to the
	// ideal optimum; GapPct is 100*(Predicted-LowerBound)/LowerBound.
	// Predicted includes communication while the bound does not, so GapPct
	// overstates the true distance from optimal — it is an upper bound on
	// the gap, which is the honest direction for a self-report.
	LowerBound  time.Duration
	BoundExact  bool
	BoundMethod string
	GapPct      float64
}

// ComputeStrategy runs the full FastT pipeline — DPOS placement, the
// gradient-sync colocation pass, then OS-DPOS operation splitting — and
// packages the result as an activatable strategy.
func ComputeStrategy(g *graph.Graph, cluster *device.Cluster, est cost.Estimator, opts Options) (*Strategy, error) {
	return ComputeStrategyCtx(context.Background(), g, cluster, est, opts)
}

// ComputeStrategyCtx is ComputeStrategy under a context: cancelling ctx (a
// serve request timeout, a Ctrl-C) aborts the search between candidate
// evaluations — within a few milliseconds on any graph — and returns
// ctx.Err(). A nil ctx means context.Background().
func ComputeStrategyCtx(ctx context.Context, g *graph.Graph, cluster *device.Cluster, est cost.Estimator, opts Options) (*Strategy, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// One immutable estimator snapshot serves the whole calculation: both
	// passes and every concurrent candidate worker read a consistent,
	// lock-free view even while the profiler keeps observing.
	est = cost.ReadSnapshot(est)
	// The graph fingerprint names the artifact and validates any seed; hash
	// once here and share it with the search (and the class-restricted
	// populations) instead of re-hashing per pass.
	opts.fingerprint = strategy.Fingerprint(g)
	// Caller pins carry full-cluster device IDs, which a renumbered
	// class-restricted subcluster cannot honor — so their presence disables
	// the restriction candidates (see subcluster.go).
	subOpts, tryRestrictions := opts, len(opts.Pinned) == 0
	// The class-restricted refinement recurses into ComputeStrategyCtx on
	// subclusters; the bound is a property of the final strategy on the full
	// cluster, so compute it once at the end, not per candidate subcluster.
	subOpts.ComputeBound = false
	pins, colSched, err := ColocateSyncCtx(ctx, g, cluster, est, opts)
	if err != nil {
		return nil, err
	}
	releaseSchedule(colSched)
	opts.Pinned = mergePins(opts.Pinned, pins)
	res, err := OSDPOSCtx(ctx, g, cluster, est, opts)
	if err != nil {
		return nil, err
	}
	full := &Strategy{
		Artifact: strategy.Artifact{
			SchemaVersion: strategy.SchemaVersion,
			Fingerprint:   opts.fingerprint,
			Placement:     res.Schedule.Placement,
			Order:         res.Schedule.Order,
			Splits:        res.Splits,
			Predicted:     res.Schedule.Makespan,
		},
		Graph:      res.Graph,
		Priorities: res.Schedule.Priorities,
		Evaluated:  res.Evaluated,
		Pruned:     res.Pruned,
		Seeded:     res.Seeded,
		SeedBound:  res.SeedBound,
		SeedWon:    res.SeedWon,
	}
	if tryRestrictions {
		full, err = refineWithClassSubclusters(ctx, g, cluster, est, subOpts, full)
		if err != nil {
			return nil, err
		}
	}
	if opts.ComputeBound {
		attachBound(full, cluster, est)
	}
	return full, nil
}

// attachBound annotates a finished strategy with the reference lower bound
// on its materialized graph. Best effort: the bound is reporting-only, so a
// solver error (a malformed graph) leaves the fields zero rather than
// failing a strategy the search already proved out.
func attachBound(s *Strategy, cluster *device.Cluster, est cost.Estimator) {
	res, err := optimal.Bound(s.Graph, cluster, est, optimal.BoundOptions{})
	if err != nil || res.LowerBound <= 0 {
		return
	}
	s.LowerBound = res.LowerBound
	s.BoundExact = res.Exact
	s.BoundMethod = res.Method
	if res.Detail != "" {
		s.BoundMethod = res.Method + " (" + res.Detail + ")"
	}
	s.GapPct = 100 * float64(s.Predicted-res.LowerBound) / float64(res.LowerBound)
}

// ComputePlacementOnly runs DPOS and the gradient-sync colocation pass but
// no operation splitting, for the ablation benchmarks (Table 6 compares
// split on/off).
func ComputePlacementOnly(g *graph.Graph, cluster *device.Cluster, est cost.Estimator, opts Options) (*Strategy, error) {
	return ComputePlacementOnlyCtx(context.Background(), g, cluster, est, opts)
}

// ComputePlacementOnlyCtx is ComputePlacementOnly under a context; see
// ComputeStrategyCtx for the cancellation contract.
func ComputePlacementOnlyCtx(ctx context.Context, g *graph.Graph, cluster *device.Cluster, est cost.Estimator, opts Options) (*Strategy, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	est = cost.ReadSnapshot(est)
	_, s, err := ColocateSyncCtx(ctx, g, cluster, est, opts)
	if err != nil {
		return nil, err
	}
	return &Strategy{
		Artifact: strategy.Artifact{
			SchemaVersion: strategy.SchemaVersion,
			Fingerprint:   strategy.Fingerprint(g),
			Placement:     s.Placement,
			Order:         s.Order,
			Predicted:     s.Makespan,
		},
		Graph:      g,
		Priorities: s.Priorities,
	}, nil
}

// DevicesUsed returns how many distinct devices the strategy places ops on.
// FastT "may not use all the input devices, and can choose a subset which
// achieves better performance than using all" (Sec. 5.2).
func (s *Strategy) DevicesUsed() int {
	seen := make(map[int]bool)
	for _, d := range s.Placement {
		if d >= 0 {
			seen[d] = true
		}
	}
	return len(seen)
}

// OpsPerDevice returns the number of ops assigned to each device ID, the
// quantity reported in Fig. 4.
func (s *Strategy) OpsPerDevice(numDevices int) []int {
	counts := make([]int, numDevices)
	for _, d := range s.Placement {
		if d >= 0 && d < numDevices {
			counts[d]++
		}
	}
	return counts
}
