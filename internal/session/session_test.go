package session

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"fastt/internal/core"
	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
	"fastt/internal/runtime"
	"fastt/internal/sim"
	"fastt/internal/strategy"
)

// simExec is the executor the tests inject: the simulator with default
// kernel models, as production callers use.
func simExec(c *device.Cluster) runtime.Executor { return sim.DefaultExecutor(c) }

// dpTrainGraph builds a small LeNet data-parallel training graph.
func dpTrainGraph(t *testing.T, replicas, batchPerReplica int) *graph.Graph {
	t.Helper()
	m, err := models.LeNet(batchPerReplica)
	if err != nil {
		t.Fatalf("LeNet: %v", err)
	}
	g, err := graph.BuildDataParallel(m, replicas)
	if err != nil {
		t.Fatalf("BuildDataParallel: %v", err)
	}
	return g
}

func cluster2(t *testing.T) *device.Cluster {
	t.Helper()
	c, err := device.SingleServer(2)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	return c
}

func TestBootstrapProducesStrategy(t *testing.T) {
	c := cluster2(t)
	g := dpTrainGraph(t, 2, 64)
	s, err := New(c, simExec(c), g, Config{Seed: 1, MaxRounds: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Bootstrap()
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if rep.Start != "data-parallel" {
		t.Errorf("Start = %q, want data-parallel", rep.Start)
	}
	if rep.StartMeasured <= 0 {
		t.Error("non-positive start measurement")
	}
	if len(rep.Rounds) == 0 {
		t.Fatal("no rounds recorded")
	}
	if rep.FinalMeasured <= 0 {
		t.Error("non-positive final measurement")
	}
	if rep.CalcWallTotal <= 0 {
		t.Error("no strategy calculation time recorded")
	}
	if s.ActiveGraph() == nil || len(s.ActivePlacement()) != s.ActiveGraph().NumOps() {
		t.Error("active strategy malformed")
	}
}

func TestBootstrapNeverEndsSlowertThanStart(t *testing.T) {
	// Rollback guarantees the final strategy is never worse than the start
	// strategy beyond measurement noise.
	c := cluster2(t)
	g := dpTrainGraph(t, 2, 64)
	s, err := New(c, simExec(c), g, Config{Seed: 3, MaxRounds: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Bootstrap()
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	slack := rep.StartMeasured / 10 // 10% noise allowance
	if rep.FinalMeasured > rep.StartMeasured+slack {
		t.Errorf("final %v slower than start %v", rep.FinalMeasured, rep.StartMeasured)
	}
}

func TestRunAfterBootstrap(t *testing.T) {
	c := cluster2(t)
	g := dpTrainGraph(t, 2, 64)
	s, err := New(c, simExec(c), g, Config{Seed: 5, MaxRounds: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Bootstrap(); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	stats, err := s.Run(5)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Iterations != 5 || stats.AvgIter <= 0 {
		t.Errorf("RunStats = %+v", stats)
	}
	if stats.Last == nil || len(stats.Last.Spans) == 0 {
		t.Error("no final iteration result captured")
	}
}

func TestRunRequiresBootstrap(t *testing.T) {
	c := cluster2(t)
	g := dpTrainGraph(t, 2, 64)
	s, err := New(c, simExec(c), g, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Run(1); err == nil {
		t.Error("Run before Bootstrap succeeded")
	}
}

func TestModelParallelStartForLargeModel(t *testing.T) {
	// A model whose replicated parameters exceed one GPU must start
	// model-parallel.
	m := graph.New()
	prev := -1
	for i := 0; i < 4; i++ {
		name := "fc" + string(rune('a'+i))
		id := m.MustAddOp(&graph.Op{
			Name: name, Kind: graph.KindMatMul, FLOPs: 1e9,
			ParamBytes: 1 * device.GiB, OutputBytes: 1 << 20,
			Batch: 8, Channels: 1024,
		})
		bp := m.MustAddOp(&graph.Op{
			Name: name + "_bp", Kind: graph.KindMatMulBackprop, FLOPs: 2e9,
			OutputBytes: 1 << 20, Batch: 8, GradFor: name,
		})
		if prev >= 0 {
			m.MustConnect(prev, id, 1<<20)
		}
		m.MustConnect(id, bp, 1<<20)
		prev = id
	}
	g, err := graph.BuildDataParallel(m, 1)
	if err != nil {
		t.Fatalf("BuildDataParallel: %v", err)
	}
	// 4 GiB params -> 16 GiB static with optimizer state: needs 2 GPUs at
	// 12 GiB each.
	c, err := device.SingleServer(2)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	for _, d := range c.Devices() {
		d.MemoryBytes = 12 * device.GiB
	}
	s, err := New(c, simExec(c), g, Config{Seed: 7, MaxRounds: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Bootstrap()
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if rep.Start != "model-parallel" {
		t.Errorf("Start = %q, want model-parallel", rep.Start)
	}
}

func TestNoFeasibleStart(t *testing.T) {
	m := graph.New()
	h := m.MustAddOp(&graph.Op{
		Name: "huge", Kind: graph.KindMatMul, FLOPs: 1e9,
		ParamBytes: 64 * device.GiB, OutputBytes: 1 << 20, Batch: 8,
	})
	bp := m.MustAddOp(&graph.Op{
		Name: "huge_bp", Kind: graph.KindMatMulBackprop, FLOPs: 2e9,
		OutputBytes: 1 << 20, Batch: 8, GradFor: "huge",
	})
	m.MustConnect(h, bp, 1<<20)
	g, err := graph.BuildDataParallel(m, 1)
	if err != nil {
		t.Fatalf("BuildDataParallel: %v", err)
	}
	c, err := device.SingleServer(2)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	s, err := New(c, simExec(c), g, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Bootstrap(); !errors.Is(err, ErrNoFeasibleStart) {
		t.Errorf("err = %v, want ErrNoFeasibleStart", err)
	}
}

func TestDisableSplittingYieldsNoSplits(t *testing.T) {
	c := cluster2(t)
	g := dpTrainGraph(t, 2, 64)
	s, err := New(c, simExec(c), g, Config{Seed: 9, MaxRounds: 2, DisableSplitting: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Bootstrap(); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if len(s.ActiveSplits()) != 0 {
		t.Errorf("splits present with splitting disabled: %v", s.ActiveSplits())
	}
}

func TestCostModelsPopulatedByBootstrap(t *testing.T) {
	c := cluster2(t)
	g := dpTrainGraph(t, 2, 64)
	s, err := New(c, simExec(c), g, Config{Seed: 11, MaxRounds: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Bootstrap(); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if s.Costs().Comp.NumEntries() == 0 {
		t.Error("computation cost model empty after bootstrap")
	}
	if cov := s.Costs().Comp.Coverage(g); cov < 0.9 {
		t.Errorf("cost model coverage = %v, want >= 0.9", cov)
	}
	if s.Costs().Link.NumPairs() == 0 {
		t.Error("communication cost model saw no traffic")
	}
}

func TestBootstrapReproducible(t *testing.T) {
	c := cluster2(t)
	run := func() *Report {
		g := dpTrainGraph(t, 2, 64)
		s, err := New(c, simExec(c), g, Config{Seed: 21, MaxRounds: 2})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		rep, err := s.Bootstrap()
		if err != nil {
			t.Fatalf("Bootstrap: %v", err)
		}
		return rep
	}
	a, b := run(), run()
	if a.StartMeasured != b.StartMeasured || a.FinalMeasured != b.FinalMeasured {
		t.Errorf("bootstrap not reproducible: %v/%v vs %v/%v",
			a.StartMeasured, a.FinalMeasured, b.StartMeasured, b.FinalMeasured)
	}
}

func TestCostPersistenceAcrossSessions(t *testing.T) {
	c := cluster2(t)
	g := dpTrainGraph(t, 2, 64)
	first, err := New(c, simExec(c), g, Config{Seed: 31, MaxRounds: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := first.Bootstrap(); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	var blob strings.Builder
	if err := first.SaveCosts(&blob); err != nil {
		t.Fatalf("SaveCosts: %v", err)
	}

	second, err := New(c, simExec(c), dpTrainGraph(t, 2, 64), Config{Seed: 33, MaxRounds: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := second.LoadCosts(strings.NewReader(blob.String())); err != nil {
		t.Fatalf("LoadCosts: %v", err)
	}
	// With the costs preloaded, coverage is complete before any profiling.
	if cov := second.Costs().Comp.Coverage(second.base); cov < 0.99 {
		t.Errorf("preloaded coverage = %v, want ~1", cov)
	}
	if _, err := second.Bootstrap(); err != nil {
		t.Fatalf("Bootstrap after LoadCosts: %v", err)
	}
}

func TestRollbackRestoresFullArtifact(t *testing.T) {
	// Activation checkpoints the complete strategy artifact; a rollback must
	// reproduce it exactly — execution order and priorities included — by
	// decoding the snapshot and re-materializing its graph, not by trusting
	// whatever happens to be in memory.
	c := cluster2(t)
	g := dpTrainGraph(t, 2, 64)
	s, err := New(c, simExec(c), g, Config{Seed: 41})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cand, err := core.ComputeStrategy(g, c, kernels.NewDefaultOracle(c),
		core.Options{MaxSplitOps: 4, MaxSyncGroups: 8})
	if err != nil {
		t.Fatalf("ComputeStrategy: %v", err)
	}
	s.cur = s.candidateActive(cand, s.costHash())
	saved := *s.cur.art
	savedGraph := s.cur.graph
	if len(saved.Order) == 0 {
		t.Fatal("computed strategy has no execution order; test would not cover order restore")
	}
	if err := s.activate(); err != nil {
		t.Fatalf("activate: %v", err)
	}

	// Clobber the live state, as activating a bad candidate would.
	junk := strategy.New(s.base, make([]int, s.base.NumOps()), nil, nil, 0,
		strategy.Provenance{Origin: "junk"})
	s.cur = active{graph: s.base, art: junk}

	if err := s.rollback(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if !reflect.DeepEqual(*s.cur.art, saved) {
		t.Errorf("restored artifact differs:\n got %+v\nwant %+v", *s.cur.art, saved)
	}
	if !reflect.DeepEqual(s.cur.art.PriorityIndex(), saved.PriorityIndex()) {
		t.Errorf("restored priorities = %v, want %v",
			s.cur.art.PriorityIndex(), saved.PriorityIndex())
	}
	if got, want := strategy.Fingerprint(s.cur.graph), strategy.Fingerprint(savedGraph); got != want {
		t.Errorf("re-materialized graph fingerprint = %s, want %s", got, want)
	}
}

func TestBootstrapCtxCancelled(t *testing.T) {
	c := cluster2(t)
	g := dpTrainGraph(t, 2, 64)
	s, err := New(c, simExec(c), g, Config{Seed: 1, MaxRounds: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.BootstrapCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("BootstrapCtx err = %v, want context.Canceled", err)
	}
}

// TestSessionStrategistSeam injects a counting strategist and checks every
// bootstrap recomputation goes through it instead of the in-process core.
func TestSessionStrategistSeam(t *testing.T) {
	c := cluster2(t)
	g := dpTrainGraph(t, 2, 64)
	calls := 0
	cfg := Config{Seed: 1, MaxRounds: 2}
	cfg.Strategist = func(ctx context.Context, bg *graph.Graph, cluster *device.Cluster,
		est cost.Estimator, opts core.Options) (*core.Strategy, error) {
		calls++
		return core.ComputeStrategyCtx(ctx, bg, cluster, est, opts)
	}
	s, err := New(c, simExec(c), g, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Bootstrap()
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if calls != len(rep.Rounds) {
		t.Errorf("strategist called %d times for %d rounds", calls, len(rep.Rounds))
	}
}
