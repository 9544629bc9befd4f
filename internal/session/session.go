// Package session drives FastT's training workflow (Sec. 4 of the paper):
// start from data parallelism (or model parallelism when the model exceeds
// one GPU), profile a few iterations to bootstrap the cost models, compute
// a new strategy with OS-DPOS, activate it via checkpoint/restart, roll
// back if the measured per-iteration time regressed, and finish the
// pre-training stage once the cost models are stable. Afterwards Run
// executes normal training under the final strategy.
package session

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"fastt/internal/checkpoint"
	"fastt/internal/core"
	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/placement"
	"fastt/internal/runtime"
	"fastt/internal/strategy"
	"fastt/internal/validate"
)

// ErrNoFeasibleStart is returned when neither data parallelism nor model
// parallelism fits the cluster.
var ErrNoFeasibleStart = errors.New("no feasible start strategy")

// errNotBootstrapped is returned by the calls that need an active strategy.
var errNotBootstrapped = errors.New("session not bootstrapped")

// The session's fixed tuning.
const (
	// profileIters is the number of iterations per profiling round.
	profileIters = 3
	// minSamples is the per-key sample count required for the computation
	// cost model to count as stable.
	minSamples = 2
	// driftThreshold is the relative deviation of an op's measured time
	// from its cost-model mean that counts as drift.
	driftThreshold = 0.3
	// driftFraction is the fraction of ops that must drift before the
	// strategy is recomputed.
	driftFraction = 0.05
	// faultBackoff is the simulated base backoff charged to the training
	// timeline per recovery, doubling with each consecutive device loss.
	faultBackoff = 2 * time.Second
)

// Config tunes a session.
type Config struct {
	// MaxRounds bounds the pre-training strategy-search rounds.
	MaxRounds int
	// StableCV is the coefficient-of-variation threshold below which the
	// computation cost model counts as stable.
	StableCV float64
	// Jitter is the simulator's measurement noise.
	Jitter float64
	// Seed makes the session reproducible.
	Seed int64
	// Sched passes through scheduling options (e.g. MaxSplitOps).
	Sched core.Options
	// Strategist, when set, replaces the in-process strategy calculator:
	// every recomputation (bootstrap rounds, drift refresh, device-loss
	// recovery) goes through it instead of core.ComputeStrategyCtx. The
	// strategy service's Strategist() makes the session one more client of
	// the cached, request-coalescing service path. Ignored under
	// DisableSplitting, which is an explicit request for the placement-only
	// in-process path.
	Strategist core.Strategist
	// DisableSplitting restricts the strategy calculator to DPOS
	// (placement + order, no operation splitting) — the "No split" arm of
	// Table 6.
	DisableSplitting bool
	// ReprofileEvery enables the paper's periodic profiling during normal
	// training: every N iterations Run profiles one iteration, and when
	// execution times have drifted significantly from the cost models it
	// updates them and recomputes the strategy. 0 disables.
	ReprofileEvery int
	// MaxFaultRetries bounds the device losses within one Run that trigger a
	// full OS-DPOS recomputation on the survivors; losses past the budget (a
	// fault storm) degrade straight to the bootstrap fallbacks — model
	// parallelism, then single device — instead of erroring. Default 3.
	MaxFaultRetries int
	// CheckpointEvery saves a training checkpoint every N successful Run
	// iterations, bounding the iterations lost to a device failure. 0 keeps
	// only the Run-start and post-recovery checkpoints.
	CheckpointEvery int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MaxRounds == 0 {
		c.MaxRounds = 4
	}
	if c.StableCV == 0 {
		c.StableCV = 0.08
	}
	if c.Jitter == 0 {
		c.Jitter = 0.02
	}
	if c.MaxFaultRetries == 0 {
		c.MaxFaultRetries = 3
	}
	return c
}

// active is the currently activated strategy: the deployment artifact plus
// the materialized graph its placement and order index into.
type active struct {
	graph *graph.Graph
	art   *strategy.Artifact
}

// Round records one pre-training strategy-search round.
type Round struct {
	// Index numbers the round from 1.
	Index int
	// CalcWall is the wall-clock time the strategy calculator spent —
	// the quantity Table 4 reports.
	CalcWall time.Duration
	// Predicted is the calculator's estimated iteration time.
	Predicted time.Duration
	// Measured is the profiled iteration time after this round.
	Measured time.Duration
	// Activated reports whether the candidate replaced the current
	// strategy; RolledBack whether it was activated and then reverted.
	Activated  bool
	RolledBack bool
	// Splits is the number of accepted operation splits in the candidate.
	Splits int
	// Evaluated and Pruned count the OS-DPOS candidate evaluations of this
	// round that ran to completion and that the bound-based pruning
	// aborted, respectively.
	Evaluated int
	Pruned    int
	// Seeded, SeedBound and SeedWon report the round's warm start (see
	// core.Options.Seed): whether a prior strategy tightened the search's
	// initial incumbent, its evaluated makespan, and whether the search
	// returned the re-materialized seed because nothing beat it.
	Seeded    bool
	SeedBound time.Duration
	SeedWon   bool
	// LowerBound and GapPct report the reference lower bound on the
	// candidate's ideal-system optimum and the candidate's distance from it
	// (see core.Strategy.LowerBound); zero unless Config.Sched.ComputeBound
	// is set.
	LowerBound time.Duration
	GapPct     float64
}

// Report summarizes the pre-training stage.
type Report struct {
	// Start names the bootstrap strategy ("data-parallel" or
	// "model-parallel").
	Start string
	// StartMeasured is the start strategy's profiled iteration time.
	StartMeasured time.Duration
	// Rounds are the strategy-search rounds.
	Rounds []Round
	// FinalMeasured is the active strategy's iteration time when the
	// stage ended.
	FinalMeasured time.Duration
	// CalcWallTotal is the total strategy-calculation wall time.
	CalcWallTotal time.Duration
	// EvaluatedTotal and PrunedTotal accumulate the per-round candidate
	// evaluation and pruning counts (Table 4's "Eval/Pruned" column).
	EvaluatedTotal int
	PrunedTotal    int
	// SeededRounds and SeedWonRounds count the rounds whose search was
	// warm-started and the subset where the seed itself won; SeedBound is
	// the last nonzero warm-start bound (the `fastt compute -seed-strategy`
	// smoke asserts it).
	SeededRounds  int
	SeedWonRounds int
	SeedBound     time.Duration
	// LowerBound, GapPct, BoundExact and BoundMethod carry the last
	// computed round's reference lower bound on the ideal-system optimum
	// and the final strategy's distance from it (zero/empty unless
	// Config.Sched.ComputeBound is set).
	LowerBound  time.Duration
	GapPct      float64
	BoundExact  bool
	BoundMethod string
	// SimulatedOverhead is the training-timeline cost of pre-training:
	// profiled iterations plus checkpoint/restart cycles.
	SimulatedOverhead time.Duration
	// Stable reports whether the cost models converged before MaxRounds.
	Stable bool
}

// RunStats summarizes a normal-training run.
type RunStats struct {
	Iterations int
	AvgIter    time.Duration
	// Last is the last iteration's full execution result (spans,
	// transfers, memory peaks) for trace export and breakdown analysis.
	Last *runtime.Result
	// Reprofiles counts the periodic profiling checks performed;
	// Recomputed counts strategy recomputations triggered by cost-model
	// drift or device-loss recovery (each implies a checkpoint/restart on
	// the training timeline).
	Reprofiles int
	Recomputed int
	// FaultEvents are the non-fatal injected faults (stragglers, link
	// degradations) the executor surfaced, each exactly once, in the order
	// they took effect: in training iterations and in the iterations a
	// drift refresh or a recovery profiled.
	FaultEvents []runtime.FaultEvent
	// DeviceLosses counts device failures recovered from during the run.
	DeviceLosses int
	// LostIterations counts training iterations rolled back by checkpoint
	// restores after device losses.
	LostIterations int
	// RecoveryTime is the simulated training-timeline time spent off the
	// training path: checkpoint restarts and retry backoff after device
	// losses, re-profiling of recovered or drift-recomputed strategies, and
	// the restart cycles of drift-triggered activations.
	RecoveryTime time.Duration
	// RecomputeWall is the wall-clock time the strategy calculator spent on
	// device-loss recomputations.
	RecomputeWall time.Duration
	// Degraded names the fallback the session was driven to when recovery
	// exhausted its retry budget ("model-parallel" or "single-device");
	// empty while OS-DPOS strategies are active.
	Degraded string
}

// Session owns the training loop state. All execution goes through the
// injected runtime.Executor, so the same workflow drives the simulator, a
// replayed trace, or any future real backend.
type Session struct {
	cfg     Config
	cluster *device.Cluster
	exec    runtime.Executor
	base    *graph.Graph
	costs   *cost.Model
	store   *checkpoint.Store
	ckCost  checkpoint.CostModel

	cur         active
	curMeasured time.Duration
	seed        int64
	step        int
	boot        *Report
	// faults collects the non-fatal faults the executor surfaces in every
	// iteration it runs, for the RunStats of the running Run.
	faults []runtime.FaultEvent
}

// New creates a session for training the given graph (a data-parallel
// training graph, or a plain model graph for models exceeding one GPU) on
// the cluster, executing through exec (typically sim.DefaultExecutor).
func New(cluster *device.Cluster, exec runtime.Executor, trainGraph *graph.Graph, cfg Config) (*Session, error) {
	if err := trainGraph.Validate(); err != nil {
		return nil, fmt.Errorf("train graph: %w", err)
	}
	if exec == nil {
		return nil, errors.New("nil executor")
	}
	cfg = cfg.withDefaults()
	return &Session{
		cfg:     cfg,
		cluster: cluster,
		exec:    exec,
		base:    trainGraph,
		costs:   cost.NewModel(cluster),
		store:   checkpoint.NewStore(),
		ckCost:  checkpoint.DefaultCostModel(),
		seed:    cfg.Seed,
	}, nil
}

// Costs exposes the learned cost models (read-mostly; used by analysis).
func (s *Session) Costs() *cost.Model { return s.costs }

// Cluster returns the cluster the session is currently scheduling onto. It
// starts as the cluster passed to New and shrinks when device-loss recovery
// drops failed devices, so callers reporting per-device state must read it
// after Run rather than holding the original.
func (s *Session) Cluster() *device.Cluster { return s.cluster }

// SaveCosts writes the learned cost models, so a later session training the
// same model can skip most of the pre-training exploration.
func (s *Session) SaveCosts(w io.Writer) error { return s.costs.WriteJSON(w) }

// LoadCosts merges previously saved cost models into this session's. Call
// before Bootstrap.
func (s *Session) LoadCosts(r io.Reader) error { return s.costs.ReadJSON(r) }

// BootstrapReport returns the pre-training report, or nil before Bootstrap.
func (s *Session) BootstrapReport() *Report { return s.boot }

// ActiveGraph returns the graph of the currently activated strategy.
func (s *Session) ActiveGraph() *graph.Graph { return s.cur.graph }

// ActiveArtifact returns the currently activated strategy as a deployment
// artifact (nil before Bootstrap). The artifact is live session state;
// callers wanting to mutate it (e.g. to stamp provenance before writing it
// to disk) should copy it first.
func (s *Session) ActiveArtifact() *strategy.Artifact { return s.cur.art }

// ActivePlacement returns the active placement (op ID -> device).
func (s *Session) ActivePlacement() []int {
	if s.cur.art == nil {
		return nil
	}
	return s.cur.art.Placement
}

// ActiveSplits returns the active strategy's split list.
func (s *Session) ActiveSplits() []graph.SplitDecision {
	if s.cur.art == nil {
		return nil
	}
	return s.cur.art.Splits
}

// ActivePriorities returns the active execution-order priorities, or nil
// when the active strategy runs under the default FIFO order.
func (s *Session) ActivePriorities() []int {
	if s.cur.art == nil {
		return nil
	}
	return s.cur.art.PriorityIndex()
}

// Bootstrap runs the pre-training stage and returns its report. It must be
// called before Run.
func (s *Session) Bootstrap() (*Report, error) {
	return s.BootstrapCtx(context.Background())
}

// BootstrapCtx is Bootstrap under a context: cancelling ctx aborts the
// running strategy search (within milliseconds) and stops the stage between
// rounds, returning ctx.Err(). `fastt compute` passes its signal context
// here so Ctrl-C exits cleanly mid-search.
func (s *Session) BootstrapCtx(ctx context.Context) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The base graph's fingerprint is hashed beside the start strategy's
	// feasibility run and profile, which read only its placement. It is
	// stamped before the start artifact is checkpointed, seeded or returned.
	fingerprint := spawn(func() string { return strategy.Fingerprint(s.base) })
	defer fingerprint.wait()
	start, err := s.startStrategy()
	if err != nil {
		return nil, err
	}
	s.cur = active{graph: s.base, art: start}
	rep := &Report{Start: start.Provenance.Origin}

	measured, ran, _, err := s.profile(s.cur)
	if err != nil {
		return nil, fmt.Errorf("profile start strategy: %w", err)
	}
	start.Fingerprint = fingerprint.wait()
	s.curMeasured = measured
	rep.StartMeasured = measured
	rep.SimulatedOverhead += ran

	for round := 1; round <= s.cfg.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := Round{Index: round}
		o, err := s.trial(ctx, s.cfg.Sched.Seed, s.curMeasured, switchRules)
		r.CalcWall = o.wall
		rep.CalcWallTotal += o.wall
		rep.SimulatedOverhead += o.charge
		if err == nil && o.invalid != nil {
			// A calculator bug: the runtime memory check (with rollback)
			// covers capacity, so only structural soundness was asserted.
			err = fmt.Errorf("invalid strategy: %w", o.invalid)
		}
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		if cand := o.cand; cand != nil {
			r.Predicted = cand.Predicted
			r.Splits = len(cand.Splits)
			r.Evaluated = cand.Evaluated
			r.Pruned = cand.Pruned
			r.Seeded = cand.Seeded
			r.SeedBound = cand.SeedBound
			r.SeedWon = cand.SeedWon
			if cand.LowerBound > 0 {
				r.LowerBound = cand.LowerBound
				r.GapPct = cand.GapPct
				rep.LowerBound = cand.LowerBound
				rep.GapPct = cand.GapPct
				rep.BoundExact = cand.BoundExact
				rep.BoundMethod = cand.BoundMethod
			}
			rep.EvaluatedTotal += cand.Evaluated
			rep.PrunedTotal += cand.Pruned
			if cand.Seeded {
				rep.SeededRounds++
				rep.SeedBound = cand.SeedBound
			}
			if cand.SeedWon {
				rep.SeedWonRounds++
			}
		}
		if !o.profiled {
			// No feasible placement (the calculator's static memory rule
			// can be more conservative than runtime behaviour) or no
			// promising candidate: keep the current strategy and profile it
			// to refine the cost models.
			m, ran, _, err := s.profile(s.cur)
			if err != nil {
				return nil, fmt.Errorf("round %d: re-profile: %w", round, err)
			}
			s.curMeasured = m
			rep.SimulatedOverhead += ran
		}
		// A rolled-back round reports the candidate's measurement, unless
		// it OOMed.
		r.Measured = s.curMeasured
		if o.measured > 0 {
			r.Measured = o.measured
		}
		r.Activated = o.kept
		r.RolledBack = o.profiled && !o.kept
		rep.Rounds = append(rep.Rounds, r)

		// Only a round that found a placement can end the stage: one that
		// found none keeps refining the cost models for the next search.
		if o.cand != nil && s.costs.Comp.Stable(minSamples, s.cfg.StableCV) {
			rep.Stable = true
			break
		}
	}
	rep.FinalMeasured = s.curMeasured
	s.boot = rep
	return rep, nil
}

// Run executes `iters` normal-training iterations under the active
// strategy. Bootstrap must have been called.
func (s *Session) Run(iters int) (*RunStats, error) {
	return s.RunCtx(context.Background(), iters)
}

// RunCtx is Run under a context: cancellation is honored between iterations
// and inside any strategy recomputation (drift refresh, device-loss
// recovery).
func (s *Session) RunCtx(ctx context.Context, iters int) (*RunStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.cur.graph == nil {
		return nil, errNotBootstrapped
	}
	if iters < 1 {
		return nil, fmt.Errorf("iters must be >= 1, got %d", iters)
	}
	// Checkpoint the entry state so a device failure early in the run has a
	// snapshot to restore.
	if err := s.activate(); err != nil {
		return nil, fmt.Errorf("checkpoint at run start: %w", err)
	}
	var total time.Duration
	var last *runtime.Result
	stats := &RunStats{Iterations: iters}
	s.faults = nil
	for i := 0; i < iters; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := s.exec.Run(s.cur.graph, s.cur.art, s.runConfig())
		if err != nil {
			if lost := asDeviceLost(err); lost != nil {
				if rerr := s.recoverFromDeviceLoss(ctx, lost, stats); rerr != nil {
					return nil, fmt.Errorf("iteration %d: %w", i, rerr)
				}
				i-- // redo the aborted iteration under the recovered strategy
				continue
			}
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		total += res.Makespan
		last = res
		s.step++
		s.faults = append(s.faults, res.Faults...)

		if s.cfg.CheckpointEvery > 0 && (i+1)%s.cfg.CheckpointEvery == 0 {
			if err := s.activate(); err != nil {
				return nil, fmt.Errorf("iteration %d: checkpoint: %w", i, err)
			}
		}
		if s.cfg.ReprofileEvery > 0 && (i+1)%s.cfg.ReprofileEvery == 0 {
			stats.Reprofiles++
			if s.drifted(res) {
				// Execution times changed significantly: refresh the cost
				// models and recompute the strategy (Sec. 4). The recompute
				// only matters if it beats what is already running, so it is
				// warm-started from the running strategy re-evaluated under
				// the drifted cost models: the right incumbent to prune
				// against.
				s.costs.ObserveRun(s.cur.graph, res)
				o, err := s.trial(ctx, s.seedArtifact(), res.Makespan, switchRules)
				stats.RecoveryTime += o.charge
				if err == nil {
					err = o.invalid
				}
				if lost := asDeviceLost(err); lost != nil {
					if rerr := s.recoverFromDeviceLoss(ctx, lost, stats); rerr != nil {
						return nil, fmt.Errorf("iteration %d: %w", i, rerr)
					}
					continue
				}
				if err != nil {
					return nil, fmt.Errorf("iteration %d: reprofile: %w", i, err)
				}
				if o.kept {
					stats.Recomputed++
				}
			}
		}
	}
	stats.AvgIter = total / time.Duration(iters)
	stats.Last = last
	stats.FaultEvents, s.faults = s.faults, nil
	return stats, nil
}

// drifted reports whether the iteration's measured op times deviate from
// the cost models beyond the configured thresholds.
func (s *Session) drifted(res *runtime.Result) bool {
	drifted, checked := 0, 0
	for _, span := range res.Spans {
		mean, ok := s.costs.Comp.Lookup(s.cur.graph.Op(span.Op).Name, span.Device)
		if !ok || mean == 0 {
			continue
		}
		checked++
		obs := span.End - span.Start
		dev := float64(obs-mean) / float64(mean)
		if dev < 0 {
			dev = -dev
		}
		if dev > driftThreshold {
			drifted++
		}
	}
	if checked == 0 {
		return false
	}
	return float64(drifted)/float64(checked) > driftFraction
}

// rules are what differs between the callers that try a new strategy:
// Bootstrap rounds and drift refreshes (switchRules), GrowCtx (growRules)
// and device-loss recovery (recoverRules). DESIGN.md §6 tabulates them.
type rules struct {
	// memory validates the candidate's memory use as well as its
	// structure; without it, the runtime OOM check and a rollback are the
	// safety net.
	memory bool
	// gate profiles only a candidate predicted to beat the running
	// strategy.
	gate bool
	// rollback checkpoints the running strategy before the candidate runs,
	// as the restart target if it is rejected; otherwise the candidate is
	// checkpointed once kept.
	rollback bool
	// keep reports whether a candidate that profiled m without an OOM
	// replaces the running strategy, measured at latest.
	keep func(m, latest time.Duration) bool
}

var (
	// switchRules keep a candidate that ties the running strategy.
	switchRules = rules{gate: true, rollback: true,
		keep: func(m, latest time.Duration) bool { return m <= latest }}
	// growRules keep the pre-join strategy on a tie: a join never slows
	// training.
	growRules = rules{memory: true,
		keep: func(m, latest time.Duration) bool { return m < latest }}
	// recoverRules keep any candidate that runs: the running strategy
	// lost a device.
	recoverRules = rules{memory: true,
		keep: func(time.Duration, time.Duration) bool { return true }}
)

// outcome is what one trial did.
type outcome struct {
	// cand is the searched candidate, nil when the search found no
	// feasible placement; wall is the search's wall time.
	cand *core.Strategy
	wall time.Duration
	// invalid is the candidate's validation error; an invalid candidate
	// never runs.
	invalid error
	// profiled reports whether the candidate ran, measured its mean
	// iteration time (zero after an OOM), and oom its OOM.
	profiled bool
	measured time.Duration
	oom      *runtime.OOMError
	// kept reports whether the candidate replaced the running strategy.
	kept bool
	// charge is the simulated time spent off the training path: the
	// trial's restarts and profiled iterations.
	charge time.Duration
}

// trial is one attempt to replace the running strategy, measured at
// latest (paper Sec. 4): search a candidate warm-started from seed,
// validate it, and unless r.gate finds it unpromising, profile it and keep
// it or the running strategy (try). Whenever the running strategy stays,
// latest becomes its measurement.
func (s *Session) trial(ctx context.Context, seed *strategy.Artifact, latest time.Duration, r rules) (outcome, error) {
	cand, costHash, wall, err := s.computeSeeded(ctx, seed)
	o := outcome{wall: wall}
	switch {
	case errors.Is(err, core.ErrNoFeasiblePlacement):
		s.curMeasured = latest
		return o, nil
	case err != nil:
		return o, fmt.Errorf("compute strategy: %w", err)
	}
	o.cand = cand
	o.invalid = validate.Strategy(cand, s.cluster, validate.Options{SkipMemory: !r.memory})
	if o.invalid != nil || r.gate && cand.Predicted >= latest {
		s.curMeasured = latest
		return o, nil
	}
	return s.try(o, s.candidateActive(cand, costHash), latest, r)
}

// try profiles next and keeps it, or the running strategy measured at
// latest, by r, adding what it charges to o. installFallback tries a
// fallback strategy the same way.
func (s *Session) try(o outcome, next active, latest time.Duration, r rules) (outcome, error) {
	if r.rollback {
		if err := s.activate(); err != nil {
			return o, fmt.Errorf("activate: %w", err)
		}
		o.charge += s.restart()
	}
	// Every profiled iteration that completed is charged, whatever the
	// outcome.
	m, ran, oom, err := s.profile(next)
	o.charge += ran
	if err != nil {
		return o, fmt.Errorf("profile candidate: %w", err)
	}
	o.profiled, o.measured, o.oom = true, m, oom
	if oom == nil && r.keep(m, latest) {
		s.cur, s.curMeasured, o.kept = next, m, true
		if r.rollback {
			return o, nil
		}
		return o, s.activate()
	}
	s.curMeasured = latest
	if r.rollback {
		if err := s.rollback(); err != nil {
			return o, fmt.Errorf("rollback: %w", err)
		}
		o.charge += s.restart()
	}
	return o, nil
}

// advanceTimeline charges off-iteration simulated time (restart cycles,
// backoff) to the executor's training-timeline clock, when the backend keeps
// one.
func (s *Session) advanceTimeline(d time.Duration) {
	if deg, ok := s.exec.(runtime.DegradableExecutor); ok {
		deg.Advance(d)
	}
}

// candidateActive packages a computed strategy as the would-be active
// state: the calculator's artifact stamped with this session's provenance
// (cluster shape and costHash, the hash of the cost-model state the search
// read), plus the materialized graph.
func (s *Session) candidateActive(cand *core.Strategy, costHash string) active {
	art := cand.Artifact
	art.Provenance = s.provenance("fastt", costHash)
	return active{graph: cand.Graph, art: &art}
}

// provenance describes this session's deployment context.
func (s *Session) provenance(origin, costHash string) strategy.Provenance {
	return strategy.Provenance{
		Origin:   origin,
		Cluster:  strategy.ClusterShapeOf(s.cluster),
		CostHash: costHash,
	}
}

// costHash hashes the learned cost models' current state for provenance,
// or returns "" when they do not serialize.
func (s *Session) costHash() string {
	hash, _ := strategy.HashJSON(s.costs.WriteJSON)
	return hash
}

// computeSeeded invokes the strategy calculator — the configured Strategist
// (the service client path) or the in-process core — on the base graph with
// the learned cost models, warm-started from seed. Bootstrap passes the
// session-configured seed; the recovery and elastic-grow recomputes pass the
// running artifact: it is a feasible, near-optimal strategy for the
// same graph, and its evaluated makespan prunes most of the recompute's
// candidate work (core.Options.Seed).
//
// Beside the search it hashes the cost models for the candidate's
// provenance: nothing writes them before the candidate is profiled, so the
// hash is of the state the search read. It returns the candidate, that
// hash, and the search's wall time, which leaves out the join.
func (s *Session) computeSeeded(ctx context.Context, seed *strategy.Artifact) (*core.Strategy, string, time.Duration, error) {
	costHash := spawn(s.costHash)
	t0 := time.Now()
	cand, err := s.search(ctx, seed)
	wall := time.Since(t0)
	return cand, costHash.wait(), wall, err
}

// search runs the strategy calculator once.
func (s *Session) search(ctx context.Context, seed *strategy.Artifact) (*core.Strategy, error) {
	opts := s.cfg.Sched
	opts.Seed = seed
	if s.cfg.DisableSplitting {
		return core.ComputePlacementOnlyCtx(ctx, s.base, s.cluster, s.costs, opts)
	}
	if s.cfg.Strategist != nil {
		return s.cfg.Strategist(ctx, s.base, s.cluster, s.costs, opts)
	}
	return core.ComputeStrategyCtx(ctx, s.base, s.cluster, s.costs, opts)
}

// seedArtifact returns the running strategy as a warm-start seed for a
// recompute, or nil when there is none or it belongs to a different base
// graph (it never should; the check keeps a violated invariant from turning
// into a failed recovery).
func (s *Session) seedArtifact() *strategy.Artifact {
	if s.cur.art == nil || s.cur.art.Fingerprint != strategy.Fingerprint(s.base) {
		return nil
	}
	return s.cur.art
}

// startStrategy picks data parallelism when it executes without OOM, and
// memory-balanced model parallelism otherwise.
func (s *Session) startStrategy() (*strategy.Artifact, error) {
	if place, err := placement.DataParallel(s.base, s.cluster); err == nil {
		art := s.startArtifact(place, "data-parallel")
		if _, err := s.exec.Run(s.base, art, s.runConfig()); err == nil {
			return art, nil
		} else {
			var oom *runtime.OOMError
			if !errors.As(err, &oom) {
				return nil, fmt.Errorf("start strategy: %w", err)
			}
		}
	}
	place, err := placement.ModelParallel(s.base, s.cluster)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoFeasibleStart, err)
	}
	art := s.startArtifact(place, "model-parallel")
	if _, err := s.exec.Run(s.base, art, s.runConfig()); err != nil {
		return nil, fmt.Errorf("%w: model parallel: %v", ErrNoFeasibleStart, err)
	}
	return art, nil
}

// startArtifact is strategy.New for a start strategy, less the
// fingerprint, which BootstrapCtx stamps once its hash is joined.
func (s *Session) startArtifact(place []int, origin string) *strategy.Artifact {
	return &strategy.Artifact{
		SchemaVersion: strategy.SchemaVersion,
		Placement:     place,
		Provenance:    s.provenance(origin, s.costHash()),
	}
}

func (s *Session) runConfig() runtime.Config {
	return runtime.Config{
		Jitter:       s.cfg.Jitter,
		Seed:         s.nextSeed(),
		EnforceOrder: true,
	}
}

func (s *Session) nextSeed() int64 {
	s.seed++
	return s.seed
}

// profile runs profileIters iterations of the strategy, feeding the cost
// models from the spans and transfers (the RunMetadata path). It returns
// the mean iteration time, and ran, the simulated time of the iterations
// that completed, which is what the training timeline is charged even
// when a later iteration fails. An OOM is reported separately, with a zero
// mean, so the caller can roll back instead of failing.
//
// Each finished iteration is observed on one goroutine, in order, beside
// the next iteration's run: the executor does not read the cost models.
// profile joins it before returning, so every iteration that ran has been
// observed.
func (s *Session) profile(a active) (mean, ran time.Duration, _ *runtime.OOMError, _ error) {
	runs := make(chan *runtime.Result, profileIters) // a send never blocks
	observed := make(chan struct{})
	go func() {
		for res := range runs {
			s.costs.ObserveRun(a.graph, res)
		}
		close(observed)
	}()
	defer func() {
		close(runs)
		<-observed
	}()
	for i := 0; i < profileIters; i++ {
		res, err := s.exec.Run(a.graph, a.art, s.runConfig())
		if err != nil {
			var oom *runtime.OOMError
			if errors.As(err, &oom) {
				return 0, ran, oom, nil
			}
			return 0, ran, nil, err
		}
		runs <- res
		ran += res.Makespan
		s.faults = append(s.faults, res.Faults...)
	}
	return ran / time.Duration(profileIters), ran, nil, nil
}

// activate checkpoints the current state — the full strategy artifact,
// execution order included — so a rollback can restore it; the caller swaps
// in the new strategy only after a successful profile.
func (s *Session) activate() error {
	snap := checkpoint.Snapshot{
		Step:       s.step,
		ParamBytes: s.cur.graph.ComputeStats().ParamBytes,
		Artifact:   *s.cur.art,
	}
	return s.store.Save(snap)
}

// rollback restores the checkpointed strategy from the store: the snapshot
// artifact is decoded, its graph re-materialized, and the pair installed as
// the active strategy — the restore path a real checkpoint/restart takes,
// rather than trusting the in-memory state to still match the checkpoint.
func (s *Session) rollback() error {
	snap, err := s.store.Restore()
	if err != nil {
		return fmt.Errorf("restore checkpoint: %w", err)
	}
	if fp := strategy.Fingerprint(s.base); snap.Artifact.Fingerprint != fp {
		return fmt.Errorf("checkpointed strategy: %w: artifact %q, base graph %q",
			strategy.ErrFingerprint, snap.Artifact.Fingerprint, fp)
	}
	g, err := snap.Artifact.Materialize(s.base)
	if err != nil {
		return fmt.Errorf("materialize checkpointed strategy: %w", err)
	}
	s.cur = active{graph: g, art: &snap.Artifact}
	return nil
}

// pending is a result computed on its own goroutine, off the session's
// critical path.
type pending[T any] struct {
	done chan struct{}
	v    T
}

// spawn starts f on a new goroutine. Whoever spawns it calls wait before
// the public method it runs in returns.
func spawn[T any](f func() T) *pending[T] {
	p := &pending[T]{done: make(chan struct{})}
	go func() {
		p.v = f()
		close(p.done)
	}()
	return p
}

// wait joins the goroutine and returns its result; it may be called again.
func (p *pending[T]) wait() T {
	<-p.done
	return p.v
}

func (s *Session) restartCost() time.Duration {
	return s.ckCost.RestartCost(s.cur.graph.ComputeStats().ParamBytes)
}

// restart charges one checkpoint/restart cycle of the running strategy to
// the training timeline and returns its cost.
func (s *Session) restart() time.Duration {
	d := s.restartCost()
	s.advanceTimeline(d)
	return d
}
