// Package fastt's root-level benchmarks regenerate every table and figure
// of the paper's evaluation; each benchmark reports the headline metric of
// its artifact. Run `go test -bench=. -benchmem` here, or use cmd/benchtab
// for the fully formatted tables.
package fastt

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastt/internal/core"
	"fastt/internal/device"
	"fastt/internal/experiments"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
	"fastt/internal/optimal"
	"fastt/internal/placement"
	"fastt/internal/serve"
	"fastt/internal/sim"
	"fastt/internal/strategy"
)

// benchCfg trades a little repetition for runtime: the simulator is
// deterministic up to jitter, so three measured iterations suffice.
func benchCfg() experiments.Config {
	return experiments.Config{MeasureIters: 3, MaxRounds: 2, Seed: 1}
}

// meanBestSpeedup aggregates a scaling table's last column.
func meanBestSpeedup(rows []experiments.ScalingRow) float64 {
	if len(rows) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rows {
		sum += r.BestSpeedup
	}
	return sum / float64(len(rows))
}

// BenchmarkTable1 regenerates Table 1 (strong scaling, nine models, five
// settings) and reports the mean of the per-model best FastT speedups.
func BenchmarkTable1(b *testing.B) {
	r := experiments.NewRunner(benchCfg())
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(r)
		if err != nil {
			b.Fatalf("Table1: %v", err)
		}
		b.ReportMetric(meanBestSpeedup(rows), "mean-speedup-%")
	}
}

// BenchmarkTable2 regenerates Table 2 (weak scaling).
func BenchmarkTable2(b *testing.B) {
	r := experiments.NewRunner(benchCfg())
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(r)
		if err != nil {
			b.Fatalf("Table2: %v", err)
		}
		b.ReportMetric(meanBestSpeedup(rows), "mean-speedup-%")
	}
}

// BenchmarkTable3 regenerates Table 3 (BERT-large batch sweep) and reports
// the largest batch FastT trains on two GPUs.
func BenchmarkTable3(b *testing.B) {
	r := experiments.NewRunner(benchCfg())
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(r)
		if err != nil {
			b.Fatalf("Table3: %v", err)
		}
		maxBatch := 0
		for _, row := range rows {
			if !row.FastTOOM && row.GlobalBatch > maxBatch {
				maxBatch = row.GlobalBatch
			}
		}
		b.ReportMetric(float64(maxBatch), "max-fastt-batch")
	}
}

// BenchmarkTable4 regenerates Table 4 (strategy computation time) and
// reports the worst-case wall time in seconds.
func BenchmarkTable4(b *testing.B) {
	r := experiments.NewRunner(benchCfg())
	names := []string{
		"Inception_v3", "VGG-19", "ResNet200", "LeNet", "AlexNet",
		"GNMT", "RNNLM", "Transformer", "Bert-large",
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(r, names)
		if err != nil {
			b.Fatalf("Table4: %v", err)
		}
		var worst float64
		for _, row := range rows {
			for _, d := range row.CalcWall {
				if s := d.Seconds(); s > worst {
					worst = s
				}
			}
		}
		b.ReportMetric(worst, "max-calc-s")
	}
}

// BenchmarkTable5 regenerates Table 5 (VGG-19 split decisions) and reports
// the number of representative ops FastT decided to split.
func BenchmarkTable5(b *testing.B) {
	r := experiments.NewRunner(benchCfg())
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5(r)
		if err != nil {
			b.Fatalf("Table5: %v", err)
		}
		split := 0
		for _, row := range rows {
			if row.Split {
				split++
			}
		}
		b.ReportMetric(float64(split), "split-ops")
	}
}

// BenchmarkTable6 regenerates Table 6 (operation splitting on/off) and
// reports the mean split speedup.
func BenchmarkTable6(b *testing.B) {
	r := experiments.NewRunner(benchCfg())
	names := []string{
		"Inception_v3", "VGG-19", "ResNet200", "LeNet", "AlexNet",
		"GNMT", "RNNLM", "Transformer", "Bert-large",
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table6(r, names)
		if err != nil {
			b.Fatalf("Table6: %v", err)
		}
		var sum float64
		for _, row := range rows {
			sum += row.SpeedupPct
		}
		b.ReportMetric(sum/float64(len(rows)), "mean-split-speedup-%")
	}
}

// BenchmarkFigure2 regenerates Fig. 2 (order enforcement) and reports the
// best per-iteration-time reduction. It doubles as the order-enforcement
// ablation.
func BenchmarkFigure2(b *testing.B) {
	r := experiments.NewRunner(benchCfg())
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure2(r)
		if err != nil {
			b.Fatalf("Figure2: %v", err)
		}
		var best float64
		for _, row := range rows {
			if row.ReductionPct > best {
				best = row.ReductionPct
			}
		}
		b.ReportMetric(best, "best-reduction-%")
	}
}

// BenchmarkFigure3 regenerates Fig. 3 (comparison with published systems)
// and reports FastT's mean normalized speed.
func BenchmarkFigure3(b *testing.B) {
	r := experiments.NewRunner(benchCfg())
	for i := 0; i < b.N; i++ {
		bars, err := experiments.Figure3(r)
		if err != nil {
			b.Fatalf("Figure3: %v", err)
		}
		var sum float64
		n := 0
		for _, bar := range bars {
			if bar.Measured {
				sum += bar.Normalized
				n++
			}
		}
		b.ReportMetric(sum/float64(n), "mean-normalized")
	}
}

// BenchmarkFigure4 regenerates Fig. 4 (ops per GPU) and reports the maximal
// imbalance ratio (max/min ops per device), the signature of FastT's
// uneven, sync-avoiding placements.
func BenchmarkFigure4(b *testing.B) {
	r := experiments.NewRunner(benchCfg())
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure4(r)
		if err != nil {
			b.Fatalf("Figure4: %v", err)
		}
		var worst float64
		for _, row := range rows {
			minC, maxC := row.Counts[0], row.Counts[0]
			for _, c := range row.Counts {
				if c < minC {
					minC = c
				}
				if c > maxC {
					maxC = c
				}
			}
			if minC > 0 {
				if ratio := float64(maxC) / float64(minC); ratio > worst {
					worst = ratio
				}
			}
		}
		b.ReportMetric(worst, "max-imbalance")
	}
}

// BenchmarkFigure5 regenerates Fig. 5 (compute/memcpy breakdown) and
// reports the mean memcpy reduction of FastT over DP in percent.
func BenchmarkFigure5(b *testing.B) {
	r := experiments.NewRunner(benchCfg())
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure5(r)
		if err != nil {
			b.Fatalf("Figure5: %v", err)
		}
		var sum float64
		n := 0
		for _, row := range rows {
			if row.DP.Memcpy > 0 {
				sum += (1 - row.FastT.Memcpy/row.DP.Memcpy) * 100
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(sum/float64(n), "mean-memcpy-reduction-%")
		}
	}
}

// BenchmarkAblationInsertion measures the cost of disabling idle-slot
// insertion in DPOS.
func BenchmarkAblationInsertion(b *testing.B) {
	benchAblation(b, experiments.AblationInsertion)
}

// BenchmarkAblationCPDevice measures the cost of disabling dedicated
// critical-path device selection.
func BenchmarkAblationCPDevice(b *testing.B) {
	benchAblation(b, experiments.AblationCPDevice)
}

// BenchmarkAblationCommModel measures the cost of replacing the per-pair
// linear-regression communication model with a flat estimate.
func BenchmarkAblationCommModel(b *testing.B) {
	benchAblation(b, experiments.AblationCommModel)
}

// BenchmarkOptimalityGap measures how far DPOS lands from the exact
// optimum (branch-and-bound, internal/optimal) on random small DAGs — the
// gap Theorem 1 bounds but the paper cannot measure. Reports the mean and
// worst DPOS/optimal makespan ratios.
func BenchmarkOptimalityGap(b *testing.B) {
	cluster, err := device.SingleServer(2)
	if err != nil {
		b.Fatal(err)
	}
	oracle := kernels.NewDefaultOracle(cluster)
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(42))
		var sum, worst float64
		const trials = 30
		for trial := 0; trial < trials; trial++ {
			g := randomBenchDAG(rng, rng.Intn(7)+3)
			opt, err := optimal.Schedule(g, cluster, oracle, optimal.Options{})
			if err != nil {
				b.Fatal(err)
			}
			sched, err := core.DPOS(g, cluster, oracle, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			var heuristic time.Duration
			for id := 0; id < g.NumOps(); id++ {
				if sched.Finish[id] > heuristic {
					heuristic = sched.Finish[id]
				}
			}
			ratio := heuristic.Seconds() / opt.Makespan.Seconds()
			sum += ratio
			if ratio > worst {
				worst = ratio
			}
		}
		b.ReportMetric(sum/trials, "mean-gap-ratio")
		b.ReportMetric(worst, "worst-gap-ratio")
	}
}

// randomBenchDAG builds a small random DAG with realistic op costs.
func randomBenchDAG(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.MustAddOp(&graph.Op{
			Name:        fmt.Sprintf("op%d", i),
			Kind:        graph.KindConv2D,
			FLOPs:       rng.Int63n(5e9) + 1e6,
			OutputBytes: rng.Int63n(8<<20) + 1,
			Batch:       8,
		})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				g.MustConnect(i, j, rng.Int63n(4<<20)+1)
			}
		}
	}
	return g
}

func benchAblation(b *testing.B, run func(experiments.Config) ([]experiments.AblationRow, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := run(benchCfg())
		if err != nil {
			b.Fatalf("ablation: %v", err)
		}
		var sum float64
		for _, row := range rows {
			sum += row.DeltaPct
		}
		b.ReportMetric(sum/float64(len(rows)), "mean-ablation-delta-%")
	}
}

// BenchmarkDPOSThroughput measures the raw strategy-calculator speed on a
// real workload (ResNet200 replicated over 4 GPUs, ~4300 ops) — the
// quantity behind Table 4's claim that white-box placement runs in seconds
// on the training node.
func BenchmarkDPOSThroughput(b *testing.B) {
	cluster, err := device.SingleServer(4)
	if err != nil {
		b.Fatal(err)
	}
	m, err := models.ResNet200(8)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.BuildDataParallel(m, 4)
	if err != nil {
		b.Fatal(err)
	}
	oracle := kernels.NewDefaultOracle(cluster)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := core.DPOS(g, cluster, oracle, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if sched.Makespan <= 0 {
			b.Fatal("bad schedule")
		}
	}
	b.ReportMetric(float64(g.NumOps()), "ops-per-graph")
}

// BenchmarkOSDPOSParallel measures the concurrent OS-DPOS candidate search
// on the split-heavy models at 8 GPUs across worker counts. workers=1 is
// the sequential baseline; the ratio to it is the parallel speedup the
// Table 4 extension reports.
func BenchmarkOSDPOSParallel(b *testing.B) {
	cluster, err := device.SingleServer(8)
	if err != nil {
		b.Fatal(err)
	}
	oracle := kernels.NewDefaultOracle(cluster)
	for _, name := range []string{"VGG-19", "Transformer"} {
		spec, err := models.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		m, err := spec.Build(8)
		if err != nil {
			b.Fatal(err)
		}
		g, err := graph.BuildDataParallel(m, 8)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, w), func(b *testing.B) {
				evaluated := 0
				for i := 0; i < b.N; i++ {
					res, err := core.OSDPOS(g, cluster, oracle, core.Options{MaxSplitOps: 8, Workers: w})
					if err != nil {
						b.Fatal(err)
					}
					if res.Schedule.Makespan <= 0 {
						b.Fatal("bad schedule")
					}
					evaluated = res.Evaluated
				}
				b.ReportMetric(float64(evaluated), "candidates")
			})
		}
	}
}

// BenchmarkWarmstartRecompute measures warm-started strategy recomputes
// (Options.Seed) against cold searches for the Transformer at 8 GPUs, the
// two cases scripts/bench.sh derives its warm-start ratios from:
//
//   - recompute/*: the same 8-GPU cluster — the cost-drift and
//     bootstrap-round path. The seed wins (nothing beats its exact
//     makespan), the walk stops after one round, and the speedup is large;
//     bench.sh gates best(cold)/best(seeded) at >= 1.5x.
//   - shrink/*: 7 survivors after a device failure — the fault-recovery
//     path. Here a 7-GPU candidate beats the re-evaluated 8-GPU seed in
//     round one, so the seeded walk is byte-identical to the cold one from
//     the first commit on and the ratio is structurally bounded near 1x
//     (see EXPERIMENTS.md, "Warm-started recompute"); bench.sh gates it as
//     a non-regression floor.
//
// Workers=1 keeps the measurement deterministic and honest on the 1-core
// CI container; the seed search itself runs outside the timer.
func BenchmarkWarmstartRecompute(b *testing.B) {
	base, err := device.SingleServer(8)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := models.ByName("Transformer")
	if err != nil {
		b.Fatal(err)
	}
	m, err := spec.Build(spec.GlobalBatch / 8)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.BuildDataParallel(m, 8)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{MaxSplitOps: 8, MaxSyncGroups: 8, Workers: 1}
	seedSt, err := core.ComputeStrategy(g, base, kernels.NewDefaultOracle(base), opts)
	if err != nil {
		b.Fatal(err)
	}
	shrunk, _, err := base.Without(7)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		cluster *device.Cluster
	}{
		{"recompute", base},
		{"shrink", shrunk},
	} {
		oracle := kernels.NewDefaultOracle(tc.cluster)
		for _, seeded := range []bool{false, true} {
			variant, o := "cold", opts
			if seeded {
				variant, o.Seed = "seeded", &seedSt.Artifact
			}
			b.Run(tc.name+"/"+variant, func(b *testing.B) {
				var st *core.Strategy
				for i := 0; i < b.N; i++ {
					st, err = core.ComputeStrategy(g, tc.cluster, oracle, o)
					if err != nil {
						b.Fatal(err)
					}
					if seeded && !st.Seeded {
						b.Fatal("seed was not applied")
					}
				}
				b.ReportMetric(float64(st.Evaluated), "evaluated")
				b.ReportMetric(float64(st.Pruned), "pruned")
			})
		}
	}
}

// BenchmarkSimulatorThroughput measures the discrete-event engine on the
// same workload, reporting simulated ops per wall second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cluster, err := device.SingleServer(4)
	if err != nil {
		b.Fatal(err)
	}
	m, err := models.ResNet200(8)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.BuildDataParallel(m, 4)
	if err != nil {
		b.Fatal(err)
	}
	place, err := placement.DataParallel(g, cluster)
	if err != nil {
		b.Fatal(err)
	}
	engine := sim.NewEngine(cluster, kernels.NewDefaultOracle(cluster))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(g, place, sim.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NumOps()), "ops-per-iteration")
}

// BenchmarkServeWarmHit measures the strategy service's warm path end to
// end: fingerprint-only POSTs over a real loopback connection, answered
// from the cache. Four keys (MLP, LeNet, AlexNet and VGG-19 at batch 8 on
// 1×2) are warmed first; half the requests go to the hottest key, the rest
// spread evenly. 8×GOMAXPROCS closed-loop clients keep queueing delay, not
// service capacity, from dominating the tail on small machines. It reports
// req/s and the p99 latency in ns; any response that is not a 200 cache hit
// fails the run. scripts/bench.sh gates both (>= 10,000 req/s, p99 < 5 ms).
func BenchmarkServeWarmHit(b *testing.B) {
	svc := serve.New(serve.Config{Sched: core.Options{MaxSplitOps: 8, MaxSyncGroups: 8, Workers: 1}})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	const clientsPerProc = 8
	clients := clientsPerProc * runtime.GOMAXPROCS(0)
	transport := &http.Transport{MaxIdleConns: clients + 8, MaxIdleConnsPerHost: clients + 8}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	post := func(body []byte) (string, error) {
		resp, err := client.Post(srv.URL+"/v1/compute", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("status %d", resp.StatusCode)
		}
		return resp.Header.Get(serve.CacheHeader), nil
	}

	const shape = `{"servers":1,"gpusPerServer":2}`
	var warm [][]byte
	for _, name := range []string{"MLP", "LeNet", "AlexNet", "VGG-19"} {
		spec, err := models.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		m, err := spec.Build(8)
		if err != nil {
			b.Fatal(err)
		}
		g, err := graph.BuildDataParallel(m, 2)
		if err != nil {
			b.Fatal(err)
		}
		var gbuf bytes.Buffer
		if err := g.WriteJSON(&gbuf); err != nil {
			b.Fatal(err)
		}
		if _, err := post(fmt.Appendf(nil, `{"model":%q,"cluster":%s,"graph":%s}`, name, shape, gbuf.Bytes())); err != nil {
			b.Fatalf("warm %s: %v", name, err)
		}
		warm = append(warm, fmt.Appendf(nil, `{"cluster":%s,"graphFingerprint":%q}`, shape, strategy.Fingerprint(g)))
	}

	var (
		mu     sync.Mutex
		lat    []time.Duration
		failed error
		seed   atomic.Int64
	)
	b.SetParallelism(clientsPerProc)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewSource(seed.Add(1)))
		var mine []time.Duration
		var err error
		for pb.Next() {
			body := warm[0]
			if r.Float64() >= 0.5 {
				body = warm[1+r.Intn(len(warm)-1)]
			}
			t0 := time.Now()
			src, perr := post(body)
			mine = append(mine, time.Since(t0))
			if perr == nil && src != string(serve.SourceHit) {
				perr = fmt.Errorf("%s = %q, want hit", serve.CacheHeader, src)
			}
			if perr != nil && err == nil {
				err = perr
			}
		}
		mu.Lock()
		lat = append(lat, mine...)
		if err != nil && failed == nil {
			failed = err
		}
		mu.Unlock()
	})
	b.StopTimer()
	if failed != nil {
		b.Fatal(failed)
	}
	slices.Sort(lat)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(lat[(len(lat)-1)*99/100]), "p99-ns")
}
