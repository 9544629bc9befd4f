// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 6): strong/weak scaling speed tables, the BERT-large
// memory table, strategy-calculation times, split decisions, order
// enforcement, baseline comparisons, placement analysis, and the
// compute/memcpy breakdown — plus ablations of FastT's design choices.
package experiments

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fastt/internal/core"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
	"fastt/internal/placement"
	"fastt/internal/session"
	"fastt/internal/sim"
	"fastt/internal/trace"
)

// Scaling selects the batch-size policy of a scaling experiment.
type Scaling int

// Scaling policies.
const (
	// Strong keeps the global batch fixed as GPUs are added (Table 1).
	Strong Scaling = iota + 1
	// Weak keeps the per-GPU batch fixed (Table 2).
	Weak
)

// String names the policy.
func (s Scaling) String() string {
	if s == Strong {
		return "strong"
	}
	return "weak"
}

// Config tunes experiment fidelity against runtime.
type Config struct {
	// MeasureIters is the number of measured iterations per configuration
	// (the paper averages 500; the simulator is deterministic up to
	// jitter, so a handful suffices).
	MeasureIters int
	// MaxRounds bounds the FastT pre-training rounds.
	MaxRounds int
	// MaxSplitOps / MaxSyncGroups bound the strategy calculator per round.
	MaxSplitOps   int
	MaxSyncGroups int
	// Workers bounds the strategy calculator's concurrent candidate
	// evaluations; 0 uses all CPUs (core.Options.Workers semantics).
	Workers int
	// Jitter is the measurement noise.
	Jitter float64
	// Seed makes runs reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.MeasureIters == 0 {
		c.MeasureIters = 5
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 3
	}
	if c.MaxSplitOps == 0 {
		c.MaxSplitOps = 6
	}
	if c.MaxSyncGroups == 0 {
		c.MaxSyncGroups = 8
	}
	if c.Jitter == 0 {
		c.Jitter = 0.02
	}
	return c
}

// Cell is the outcome of one (model, scaling, GPUs, servers) configuration.
type Cell struct {
	Model       string
	Scaling     Scaling
	GPUs        int
	Servers     int
	GlobalBatch int

	// Data-parallel baseline.
	DPIter      time.Duration
	DPSpeed     float64 // samples/s (0 when OOM)
	DPOOM       bool
	DPBreakdown trace.Breakdown

	// FastT.
	FastTIter      time.Duration
	FastTSpeed     float64
	FastTOOM       bool
	FastTStart     string // bootstrap strategy label
	FastTBreakdown trace.Breakdown
	Splits         []graph.SplitDecision
	CalcWall       time.Duration
	OpsPerDevice   []int
	// Evaluated/Pruned count the OS-DPOS candidate evaluations completed
	// and pruned across all pre-training rounds (Table 4).
	Evaluated int
	Pruned    int

	// FastT's activated strategy, for order-enforcement re-runs (Fig. 2).
	FastTGraph      *graph.Graph
	FastTPlacement  []int
	FastTPriorities []int
}

// Speedup returns FastT's relative gain over the DP baseline in percent
// (0 when either side is unavailable).
func (c *Cell) Speedup() float64 {
	if c.DPSpeed <= 0 || c.FastTSpeed <= 0 {
		return 0
	}
	return (c.FastTSpeed/c.DPSpeed - 1) * 100
}

// Runner executes and memoizes cells.
type Runner struct {
	cfg   Config
	mu    sync.Mutex
	cache map[cellKey]*Cell
}

type cellKey struct {
	model    string
	scaling  Scaling
	gpus     int
	servers  int
	batchOvr int
}

// NewRunner returns a runner with the given configuration.
func NewRunner(cfg Config) *Runner {
	return &Runner{cfg: cfg.withDefaults(), cache: make(map[cellKey]*Cell)}
}

// Cell runs (or returns the cached) configuration.
func (r *Runner) Cell(model string, scaling Scaling, gpus, servers int) (*Cell, error) {
	return r.cellWithBatch(model, scaling, gpus, servers, 0)
}

// CellWithBatch overrides the global batch (Table 3's batch sweep).
func (r *Runner) CellWithBatch(model string, gpus, servers, globalBatch int) (*Cell, error) {
	return r.cellWithBatch(model, Strong, gpus, servers, globalBatch)
}

func (r *Runner) cellWithBatch(model string, scaling Scaling, gpus, servers, batchOvr int) (*Cell, error) {
	key := cellKey{model: model, scaling: scaling, gpus: gpus, servers: servers, batchOvr: batchOvr}
	r.mu.Lock()
	if c, ok := r.cache[key]; ok {
		r.mu.Unlock()
		return c, nil
	}
	r.mu.Unlock()
	c, err := r.run(model, scaling, gpus, servers, batchOvr)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.cache[key] = c
	r.mu.Unlock()
	return c, nil
}

func (r *Runner) run(model string, scaling Scaling, gpus, servers, batchOvr int) (*Cell, error) {
	spec, err := models.ByName(model)
	if err != nil {
		return nil, err
	}
	if gpus < 1 || servers < 1 || gpus%servers != 0 {
		return nil, fmt.Errorf("bad topology: %d GPUs on %d servers", gpus, servers)
	}
	cluster, err := device.NewCluster(servers, gpus/servers)
	if err != nil {
		return nil, err
	}

	perGPU, global := batches(spec, scaling, gpus, batchOvr)
	cell := &Cell{
		Model:       model,
		Scaling:     scaling,
		GPUs:        gpus,
		Servers:     servers,
		GlobalBatch: global,
	}

	engine := sim.NewEngine(cluster, kernels.NewDefaultOracle(cluster))
	dpGraph, dpPlace, err := dpBaseline(spec, perGPU, gpus, cluster)
	if err != nil {
		return nil, err
	}
	if err := r.measureDP(cell, engine, dpGraph, dpPlace, global); err != nil {
		return nil, err
	}
	if err := r.measureFastT(cell, cluster, spec, dpGraph, global); err != nil {
		return nil, err
	}
	return cell, nil
}

// batches resolves the per-GPU and global batch for a configuration.
func batches(spec models.Spec, scaling Scaling, gpus, batchOvr int) (perGPU, global int) {
	switch scaling {
	case Weak:
		perGPU = spec.PerGPUBatch
		return perGPU, perGPU * gpus
	default:
		global = spec.GlobalBatch
		if batchOvr > 0 {
			global = batchOvr
		}
		perGPU = global / gpus
		if perGPU < 1 {
			perGPU = 1
		}
		return perGPU, global
	}
}

// dpBaseline builds the data-parallel training graph and its pinned
// placement.
func dpBaseline(spec models.Spec, perGPU, gpus int, cluster *device.Cluster) (*graph.Graph, []int, error) {
	m, err := spec.Build(perGPU)
	if err != nil {
		return nil, nil, fmt.Errorf("build %s: %w", spec.Name, err)
	}
	g, err := graph.BuildDataParallel(m, gpus)
	if err != nil {
		return nil, nil, fmt.Errorf("replicate %s: %w", spec.Name, err)
	}
	place, err := placement.DataParallel(g, cluster)
	if err != nil {
		return nil, nil, fmt.Errorf("place %s: %w", spec.Name, err)
	}
	return g, place, nil
}

func (r *Runner) measureDP(cell *Cell, engine *sim.Engine, g *graph.Graph, place []int, global int) error {
	var total time.Duration
	var last *sim.Result
	for i := 0; i < r.cfg.MeasureIters; i++ {
		res, err := engine.Run(g, place, sim.Config{
			Jitter: r.cfg.Jitter,
			Seed:   r.cfg.Seed + int64(i),
		})
		if err != nil {
			var oom *sim.OOMError
			if errors.As(err, &oom) {
				cell.DPOOM = true
				return nil
			}
			return fmt.Errorf("DP baseline: %w", err)
		}
		total += res.Makespan
		last = res
	}
	cell.DPIter = total / time.Duration(r.cfg.MeasureIters)
	cell.DPSpeed = float64(global) / cell.DPIter.Seconds()
	cell.DPBreakdown = trace.BreakdownOf(last)
	return nil
}

func (r *Runner) measureFastT(cell *Cell, cluster *device.Cluster, spec models.Spec,
	dpGraph *graph.Graph, global int) error {
	// The paper's input-graph rule (Sec. 5.2): the data-parallel graph
	// when it fits, otherwise the plain model DAG at the full batch.
	train := dpGraph
	if cell.DPOOM {
		full, err := spec.Build(global)
		if err != nil {
			return fmt.Errorf("build full-batch %s: %w", spec.Name, err)
		}
		train, err = graph.BuildDataParallel(full, 1)
		if err != nil {
			return fmt.Errorf("wrap full-batch %s: %w", spec.Name, err)
		}
	}
	s, err := session.New(cluster, sim.DefaultExecutor(cluster), train, session.Config{
		Seed:      r.cfg.Seed,
		MaxRounds: r.cfg.MaxRounds,
		Jitter:    r.cfg.Jitter,
		Sched: core.Options{
			MaxSplitOps:   r.cfg.MaxSplitOps,
			MaxSyncGroups: r.cfg.MaxSyncGroups,
			Workers:       r.cfg.Workers,
		},
	})
	if err != nil {
		return fmt.Errorf("session: %w", err)
	}
	rep, err := s.Bootstrap()
	if err != nil {
		if errors.Is(err, session.ErrNoFeasibleStart) {
			cell.FastTOOM = true
			return nil
		}
		return fmt.Errorf("bootstrap: %w", err)
	}
	stats, err := s.Run(r.cfg.MeasureIters)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	cell.FastTIter = stats.AvgIter
	cell.FastTSpeed = float64(global) / stats.AvgIter.Seconds()
	cell.FastTStart = rep.Start
	cell.FastTBreakdown = trace.BreakdownOf(stats.Last)
	cell.Splits = s.ActiveSplits()
	cell.CalcWall = rep.CalcWallTotal
	cell.Evaluated = rep.EvaluatedTotal
	cell.Pruned = rep.PrunedTotal
	cell.FastTGraph = s.ActiveGraph()
	cell.FastTPlacement = s.ActivePlacement()
	cell.FastTPriorities = s.ActivePriorities()
	cell.OpsPerDevice = opsPerDevice(cell.FastTPlacement, cluster.NumDevices())
	return nil
}

func opsPerDevice(place []int, n int) []int {
	counts := make([]int, n)
	for _, d := range place {
		if d >= 0 && d < n {
			counts[d]++
		}
	}
	return counts
}
