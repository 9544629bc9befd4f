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

// Config tunes a session.
type Config struct {
	// ProfileIters is the number of iterations per profiling round.
	ProfileIters int
	// MaxRounds bounds the pre-training strategy-search rounds.
	MaxRounds int
	// StableCV is the coefficient-of-variation threshold below which the
	// computation cost model counts as stable.
	StableCV float64
	// MinSamples is the per-key sample count required for stability.
	MinSamples int64
	// Jitter is the simulator's measurement noise.
	Jitter float64
	// Seed makes the session reproducible.
	Seed int64
	// Memory is the memory model for placement and OOM accounting.
	Memory graph.MemoryModel
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
	// DisableOrderEnforcement executes computed strategies with the
	// default FIFO executor instead of priority order — the "Default" arm
	// of Fig. 2.
	DisableOrderEnforcement bool
	// ReprofileEvery enables the paper's periodic profiling during normal
	// training: every N iterations Run profiles one iteration, and when
	// execution times have drifted significantly from the cost models it
	// updates them and recomputes the strategy. 0 disables.
	ReprofileEvery int
	// DriftThreshold is the relative deviation of an op's measured time
	// from its cost-model mean that counts as drift (default 0.3).
	DriftThreshold float64
	// DriftFraction is the fraction of ops that must drift before the
	// strategy is recomputed (default 0.05).
	DriftFraction float64
	// MaxFaultRetries bounds the device losses within one Run that trigger a
	// full OS-DPOS recomputation on the survivors; losses past the budget (a
	// fault storm) degrade straight to the bootstrap fallbacks — model
	// parallelism, then single device — instead of erroring. Default 3.
	MaxFaultRetries int
	// FaultBackoff is the simulated base backoff charged to the training
	// timeline per recovery, doubling with each consecutive device loss.
	// Default 2s.
	FaultBackoff time.Duration
	// CheckpointEvery saves a training checkpoint every N successful Run
	// iterations, bounding the iterations lost to a device failure. 0 keeps
	// only the Run-start and post-recovery checkpoints.
	CheckpointEvery int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.ProfileIters == 0 {
		c.ProfileIters = 3
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 4
	}
	if c.StableCV == 0 {
		c.StableCV = 0.08
	}
	if c.MinSamples == 0 {
		c.MinSamples = 2
	}
	if c.Jitter == 0 {
		c.Jitter = 0.02
	}
	if c.Memory == (graph.MemoryModel{}) {
		c.Memory = graph.DefaultMemoryModel()
	}
	if c.DriftThreshold == 0 {
		c.DriftThreshold = 0.3
	}
	if c.DriftFraction == 0 {
		c.DriftFraction = 0.05
	}
	if c.MaxFaultRetries == 0 {
		c.MaxFaultRetries = 3
	}
	if c.FaultBackoff == 0 {
		c.FaultBackoff = 2 * time.Second
	}
	if c.Sched.Memory == (graph.MemoryModel{}) {
		c.Sched.Memory = c.Memory
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
	// they took effect.
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
	start, err := s.startStrategy()
	if err != nil {
		return nil, err
	}
	s.cur = active{graph: s.base, art: start}
	rep := &Report{Start: start.Provenance.Origin}

	measured, _, err := s.profile(s.cur)
	if err != nil {
		return nil, fmt.Errorf("profile start strategy: %w", err)
	}
	s.curMeasured = measured
	rep.StartMeasured = measured
	rep.SimulatedOverhead += measured * time.Duration(s.cfg.ProfileIters)

	for round := 1; round <= s.cfg.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := Round{Index: round}
		t0 := time.Now()
		cand, err := s.compute(ctx)
		r.CalcWall = time.Since(t0)
		rep.CalcWallTotal += r.CalcWall
		if errors.Is(err, core.ErrNoFeasiblePlacement) {
			// The calculator found no placement within memory (its static
			// model can be more conservative than runtime behaviour); keep
			// the current strategy and continue refining the cost models.
			m, _, perr := s.profile(s.cur)
			if perr != nil {
				return nil, fmt.Errorf("round %d: re-profile: %w", round, perr)
			}
			s.curMeasured = m
			r.Measured = m
			rep.SimulatedOverhead += m * time.Duration(s.cfg.ProfileIters)
			rep.Rounds = append(rep.Rounds, r)
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("round %d: compute strategy: %w", round, err)
		}
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

		// Guard against calculator bugs before touching the executor; the
		// runtime memory check (with rollback) covers capacity, so only
		// structural soundness is asserted here.
		if err := validate.Strategy(cand, s.cluster, validate.Options{SkipMemory: true}); err != nil {
			return nil, fmt.Errorf("round %d: invalid strategy: %w", round, err)
		}

		if cand.Predicted < s.curMeasured {
			next := s.candidateActive(cand)
			if err := s.activate(); err != nil {
				return nil, fmt.Errorf("round %d: activate: %w", round, err)
			}
			rep.SimulatedOverhead += s.restartCost()
			s.advanceTimeline(s.restartCost())
			m, oom, err := s.profile(next)
			switch {
			case oom != nil:
				// The candidate OOMs at runtime (activation lifetimes the
				// static check missed): roll back.
				if err := s.rollback(); err != nil {
					return nil, fmt.Errorf("round %d: rollback: %w", round, err)
				}
				rep.SimulatedOverhead += s.restartCost()
				s.advanceTimeline(s.restartCost())
				r.RolledBack = true
				r.Measured = s.curMeasured
			case err != nil:
				return nil, fmt.Errorf("round %d: profile candidate: %w", round, err)
			case m > s.curMeasured:
				// Paper: if the new strategy is slower, roll back.
				if err := s.rollback(); err != nil {
					return nil, fmt.Errorf("round %d: rollback: %w", round, err)
				}
				rep.SimulatedOverhead += s.restartCost() + m*time.Duration(s.cfg.ProfileIters)
				s.advanceTimeline(s.restartCost())
				r.RolledBack = true
				r.Measured = m
			default:
				s.cur = next
				s.curMeasured = m
				r.Activated = true
				r.Measured = m
				rep.SimulatedOverhead += m * time.Duration(s.cfg.ProfileIters)
			}
		} else {
			// Not promising: keep profiling the current strategy to refine
			// the cost models.
			m, _, err := s.profile(s.cur)
			if err != nil {
				return nil, fmt.Errorf("round %d: re-profile: %w", round, err)
			}
			s.curMeasured = m
			r.Measured = m
			rep.SimulatedOverhead += m * time.Duration(s.cfg.ProfileIters)
		}
		rep.Rounds = append(rep.Rounds, r)

		if s.costs.Comp.Stable(s.cfg.MinSamples, s.cfg.StableCV) {
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
		return nil, errors.New("session not bootstrapped")
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
	for i := 0; i < iters; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := s.runOnce(s.cur)
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
		stats.FaultEvents = append(stats.FaultEvents, res.Faults...)

		if s.cfg.CheckpointEvery > 0 && (i+1)%s.cfg.CheckpointEvery == 0 {
			if err := s.activate(); err != nil {
				return nil, fmt.Errorf("iteration %d: checkpoint: %w", i, err)
			}
		}
		if s.cfg.ReprofileEvery > 0 && (i+1)%s.cfg.ReprofileEvery == 0 {
			stats.Reprofiles++
			if s.drifted(res) {
				// Execution times changed significantly: refresh the cost
				// models and recompute the strategy (Sec. 4).
				s.observe(s.cur.graph, res)
				recomputed, charged, err := s.refreshStrategy(ctx, res.Makespan)
				if err != nil {
					if lost := asDeviceLost(err); lost != nil {
						stats.RecoveryTime += charged
						if rerr := s.recoverFromDeviceLoss(ctx, lost, stats); rerr != nil {
							return nil, fmt.Errorf("iteration %d: %w", i, rerr)
						}
						continue
					}
					return nil, fmt.Errorf("iteration %d: reprofile: %w", i, err)
				}
				stats.RecoveryTime += charged
				if recomputed {
					stats.Recomputed++
				}
			}
		}
	}
	stats.AvgIter = total / time.Duration(iters)
	stats.Last = last
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
		if dev > s.cfg.DriftThreshold {
			drifted++
		}
	}
	if checked == 0 {
		return false
	}
	return float64(drifted)/float64(checked) > s.cfg.DriftFraction
}

// refreshStrategy recomputes the strategy against the refreshed cost models
// and activates it when its estimate beats the latest measurement. Returns
// whether a new strategy was activated, plus the simulated recovery time the
// attempt charged to the training timeline: every activation or rollback is
// a checkpoint/restart cycle, and candidate profiling runs off the training
// path. The charge is reported even alongside an error, so callers can
// account partial work.
func (s *Session) refreshStrategy(ctx context.Context, latest time.Duration) (bool, time.Duration, error) {
	// Warm-start from the running strategy re-evaluated under the drifted
	// cost models: the recompute only matters if it beats what is already
	// running, so that is the right incumbent to prune against.
	cand, err := s.computeSeeded(ctx, s.seedArtifact())
	if errors.Is(err, core.ErrNoFeasiblePlacement) {
		return false, 0, nil // keep the running strategy
	}
	if err != nil {
		return false, 0, err
	}
	if err := validate.Strategy(cand, s.cluster, validate.Options{SkipMemory: true}); err != nil {
		return false, 0, err
	}
	if cand.Predicted >= latest {
		s.curMeasured = latest
		return false, 0, nil
	}
	next := s.candidateActive(cand)
	if err := s.activate(); err != nil {
		return false, 0, err
	}
	charged := s.restartCost()
	s.advanceTimeline(charged)
	m, oom, err := s.profile(next)
	if err != nil {
		return false, charged, err
	}
	charged += m * time.Duration(s.cfg.ProfileIters)
	if oom != nil || m > latest {
		if err := s.rollback(); err != nil {
			return false, charged, err
		}
		charged += s.restartCost()
		s.advanceTimeline(s.restartCost())
		return false, charged, nil
	}
	s.cur = next
	s.curMeasured = m
	return true, charged, nil
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
// (cluster shape and the hash of the cost-model snapshot that justified
// it), plus the materialized graph.
func (s *Session) candidateActive(cand *core.Strategy) active {
	art := cand.Artifact
	art.Provenance = s.provenance("fastt")
	return active{graph: cand.Graph, art: &art}
}

// provenance describes this session's deployment context.
func (s *Session) provenance(origin string) strategy.Provenance {
	prov := strategy.Provenance{
		Origin:  origin,
		Cluster: strategy.ClusterShapeOf(s.cluster),
	}
	if hash, err := strategy.HashJSON(s.costs.WriteJSON); err == nil {
		prov.CostHash = hash
	}
	return prov
}

// compute invokes the strategy calculator — the configured Strategist (the
// service client path) or the in-process core — on the base graph with the
// learned cost models.
func (s *Session) compute(ctx context.Context) (*core.Strategy, error) {
	return s.computeSeeded(ctx, s.cfg.Sched.Seed)
}

// computeSeeded is compute with an explicit warm-start seed overriding any
// session-configured one. The recovery and elastic-grow recomputes pass the
// running artifact here: it is a feasible, near-optimal strategy for the
// same graph, and its evaluated makespan prunes most of the recompute's
// candidate work (core.Options.Seed).
func (s *Session) computeSeeded(ctx context.Context, seed *strategy.Artifact) (*core.Strategy, error) {
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
		art := strategy.New(s.base, place, nil, nil, 0, s.provenance("data-parallel"))
		if _, err := s.exec.Run(s.base, art, s.runConfig()); err == nil {
			return art, nil
		} else {
			var oom *runtime.OOMError
			if !errors.As(err, &oom) {
				return nil, fmt.Errorf("start strategy: %w", err)
			}
		}
	}
	place, err := placement.ModelParallel(s.base, s.cluster, s.cfg.Memory)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoFeasibleStart, err)
	}
	art := strategy.New(s.base, place, nil, nil, 0, s.provenance("model-parallel"))
	if _, err := s.exec.Run(s.base, art, s.runConfig()); err != nil {
		return nil, fmt.Errorf("%w: model parallel: %v", ErrNoFeasibleStart, err)
	}
	return art, nil
}

func (s *Session) runConfig() runtime.Config {
	return runtime.Config{
		Memory:       s.cfg.Memory,
		Jitter:       s.cfg.Jitter,
		Seed:         s.nextSeed(),
		EnforceOrder: !s.cfg.DisableOrderEnforcement,
	}
}

func (s *Session) nextSeed() int64 {
	s.seed++
	return s.seed
}

func (s *Session) runOnce(a active) (*runtime.Result, error) {
	return s.exec.Run(a.graph, a.art, s.runConfig())
}

// profile runs ProfileIters iterations of the strategy, feeding the cost
// models from the spans and transfers (the RunMetadata path), and returns
// the mean iteration time. An OOM is reported separately so the caller can
// roll back instead of failing.
func (s *Session) profile(a active) (time.Duration, *runtime.OOMError, error) {
	var total time.Duration
	for i := 0; i < s.cfg.ProfileIters; i++ {
		res, err := s.runOnce(a)
		if err != nil {
			var oom *runtime.OOMError
			if errors.As(err, &oom) {
				return 0, oom, nil
			}
			return 0, nil, err
		}
		s.observe(a.graph, res)
		total += res.Makespan
	}
	return total / time.Duration(s.cfg.ProfileIters), nil, nil
}

// observe feeds one iteration's profile into the cost models.
func (s *Session) observe(g *graph.Graph, res *runtime.Result) {
	for _, span := range res.Spans {
		s.costs.Comp.Observe(g.Op(span.Op).Name, span.Device, span.End-span.Start)
	}
	for _, tr := range res.Transfers {
		s.costs.Link.Observe(tr.From, tr.To, tr.Bytes, tr.End-tr.Start)
	}
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
	g, err := snap.Artifact.Materialize(s.base)
	if err != nil {
		return fmt.Errorf("materialize checkpointed strategy: %w", err)
	}
	s.cur = active{graph: g, art: &snap.Artifact}
	return nil
}

func (s *Session) restartCost() time.Duration {
	return s.ckCost.RestartCost(s.cur.graph.ComputeStats().ParamBytes)
}
