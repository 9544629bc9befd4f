package experiments

import (
	"fmt"
	"io"
	"time"

	"fastt/internal/core"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/models"
	"fastt/internal/session"
	"fastt/internal/sim"
)

// FaultRow is one (model, fault rate) configuration of the fault-recovery
// table: how much a seeded fault storm costs a FastT session in lost
// iterations and recovery time, and whether the session had to degrade.
type FaultRow struct {
	Model string
	GPUs  int
	// Rate is the fault arrival rate in expected faults per training
	// iteration (scale-free across models with very different iteration
	// times).
	Rate float64
	// Injected counts fault events in the generated plan.
	Injected int

	// DeviceLosses / LostIterations / RecoveryTime / RecomputeWall mirror
	// the session's RunStats after the faulty run.
	DeviceLosses   int
	LostIterations int
	RecoveryTime   time.Duration
	RecomputeWall  time.Duration
	// Degraded names the fallback strategy when the retry budget ran out
	// ("" when every loss was recovered by a full recompute).
	Degraded string
	// Survivors is the cluster size after the run.
	Survivors int
	// AvgIter is the measured per-iteration time over the faulty run.
	AvgIter time.Duration
}

// FaultRates is the default fault-rate sweep (expected faults per training
// iteration), spanning "at most one loss per run" to "storm that can
// exhaust the retry budget".
func FaultRates() []float64 { return []float64{0.05, 0.2, 0.5} }

// FaultRecoveryTable measures recovery cost versus fault rate across the
// given models on a single server of gpus devices. Each cell bootstraps
// fault-free, then arms a plan drawn from GeneratePlan at the row's rate
// over a horizon of iters post-bootstrap iterations and runs through it.
func FaultRecoveryTable(cfg Config, modelNames []string, gpus, iters int, rates []float64) ([]FaultRow, error) {
	cfg = cfg.withDefaults()
	rows := make([]FaultRow, 0, len(modelNames)*len(rates))
	for _, name := range modelNames {
		for _, rate := range rates {
			row, err := faultCell(cfg, name, gpus, iters, rate)
			if err != nil {
				return nil, fmt.Errorf("%s at rate %g: %w", name, rate, err)
			}
			rows = append(rows, *row)
		}
	}
	return rows, nil
}

func faultCell(cfg Config, model string, gpus, iters int, rate float64) (*FaultRow, error) {
	spec, err := models.ByName(model)
	if err != nil {
		return nil, err
	}
	cluster, err := device.SingleServer(gpus)
	if err != nil {
		return nil, err
	}
	perGPU, _ := batches(spec, Strong, gpus, 0)
	m, err := spec.Build(perGPU)
	if err != nil {
		return nil, err
	}
	train, err := graph.BuildDataParallel(m, gpus)
	if err != nil {
		return nil, err
	}
	exec := sim.DefaultExecutor(cluster)
	s, err := session.New(cluster, exec, train, session.Config{
		Seed:            cfg.Seed,
		MaxRounds:       cfg.MaxRounds,
		Jitter:          cfg.Jitter,
		CheckpointEvery: 5,
		Sched: core.Options{
			MaxSplitOps:   cfg.MaxSplitOps,
			MaxSyncGroups: cfg.MaxSyncGroups,
			Workers:       cfg.Workers,
		},
	})
	if err != nil {
		return nil, err
	}
	rep, err := s.Bootstrap()
	if err != nil {
		return nil, err
	}
	// Draw the fault storm over the horizon the run will actually cover,
	// starting at the post-bootstrap epoch so bootstrap stays fault-free.
	// The per-iteration rate converts to GeneratePlan's per-second rate via
	// the measured iteration time.
	horizon := time.Duration(iters) * rep.FinalMeasured
	perSecond := 0.0
	if rep.FinalMeasured > 0 {
		perSecond = rate / rep.FinalMeasured.Seconds()
	}
	plan := sim.GeneratePlan(cfg.Seed+int64(rate*1000), gpus, perSecond, horizon, exec.Epoch())
	if err := exec.SetPlan(plan); err != nil {
		return nil, err
	}
	stats, err := s.Run(iters)
	if err != nil {
		return nil, err
	}
	return &FaultRow{
		Model:          model,
		GPUs:           gpus,
		Rate:           rate,
		Injected:       len(plan.Faults),
		DeviceLosses:   stats.DeviceLosses,
		LostIterations: stats.LostIterations,
		RecoveryTime:   stats.RecoveryTime,
		RecomputeWall:  stats.RecomputeWall,
		Degraded:       stats.Degraded,
		Survivors:      s.Cluster().NumDevices(),
		AvgIter:        stats.AvgIter,
	}, nil
}

// WriteFaultTable prints the fault-recovery table.
func WriteFaultTable(w io.Writer, rows []FaultRow) error {
	if _, err := fmt.Fprintf(w, "%-16s %5s %6s %8s %7s %9s %12s %10s %-14s\n",
		"Model", "GPUs", "Rate", "Injected", "Losses", "LostIters", "RecoveryT", "AvgIter", "Degraded"); err != nil {
		return err
	}
	for _, r := range rows {
		degraded := r.Degraded
		if degraded == "" {
			degraded = "-"
		}
		fmt.Fprintf(w, "%-16s %5d %6.2f %8d %7d %9d %12v %10v %-14s\n",
			r.Model, r.GPUs, r.Rate, r.Injected, r.DeviceLosses, r.LostIterations,
			r.RecoveryTime.Round(time.Millisecond), r.AvgIter.Round(time.Microsecond), degraded)
	}
	return nil
}
