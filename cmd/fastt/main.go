// Command fastt computes and evaluates a FastT deployment strategy for one
// of the benchmark models on a simulated GPU cluster: it runs the
// data-parallel baseline, bootstraps the FastT session (cost models,
// DPOS/OS-DPOS, checkpoint-activated strategies with rollback), and reports
// speed, the split list, per-device placement, utilization and an ASCII
// timeline. Optionally it exports a Chrome trace and a Graphviz DOT of the
// placed graph.
//
// Usage:
//
//	fastt -model VGG-19 -gpus 4 [-servers 1] [-batch 64] [-weak]
//	      [-workers N] [-trace out.json] [-dot out.dot] [-timeline]
//	      [-strategy s.json] [-save-costs c.json] [-load-costs c.json]
//	      [-faults plan.json]
//	fastt compute -model MLP -gpus 2 -out s.json [-save-costs c.json]
//
// The compute subcommand runs the strategy search offline and writes the
// result as a versioned JSON artifact; -strategy loads such an artifact,
// validates it against the target graph and cluster, and executes it without
// repeating the search — the paper's "compute in minutes, deploy later"
// workflow.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	goruntime "runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"fastt/internal/core"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
	"fastt/internal/placement"
	"fastt/internal/runtime"
	"fastt/internal/session"
	"fastt/internal/sim"
	"fastt/internal/strategy"
	"fastt/internal/trace"
	"fastt/internal/validate"
)

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "compute":
		err = runCompute(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "serve":
		err = runServe(os.Args[2:])
	default:
		err = run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fastt:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		model    = flag.String("model", "VGG-19", "benchmark model (see -list)")
		list     = flag.Bool("list", false, "list available models and exit")
		gpus     = flag.Int("gpus", 4, "number of GPUs")
		servers  = flag.Int("servers", 1, "number of servers (GPUs divide evenly)")
		batch    = flag.Int("batch", 0, "global batch override (0 = paper default)")
		weak     = flag.Bool("weak", false, "weak scaling (fixed per-GPU batch)")
		iters    = flag.Int("iters", 5, "measured iterations")
		seed     = flag.Int64("seed", 1, "random seed")
		traceOut = flag.String("trace", "", "write a Chrome trace of one FastT iteration")
		spansOut = flag.String("spans", "", "write the FastT iteration's spans as CSV")
		dotOut   = flag.String("dot", "", "write the placed graph in Graphviz DOT")
		timeline = flag.Bool("timeline", false, "print an ASCII timeline")
		graphIn  = flag.String("graph", "", "schedule a JSON graph (see graph.WriteJSON) instead of a catalog model")
		export   = flag.String("export", "", "write the selected model's training graph as JSON and exit")
		workers  = flag.Int("workers", 0, "strategy-calculator worker goroutines (0 = all CPUs, 1 = sequential)")
		stratIn  = flag.String("strategy", "", "execute a strategy artifact written by 'fastt compute' instead of searching")
		saveCost = flag.String("save-costs", "", "write the learned cost models to this file after training")
		loadCost = flag.String("load-costs", "", "preload cost models saved by an earlier run before bootstrapping")
		faultsIn = flag.String("faults", "", "inject deterministic faults from a JSON plan (times relative to training start); device failures trigger checkpoint recovery")
		clustIn  = flag.String("cluster", "", "heterogeneous cluster spec JSON (overrides -gpus/-servers; see device.ReadSpec)")
	)
	flag.Parse()

	if *list {
		for _, s := range append(models.Catalog(), models.Extras()...) {
			fmt.Printf("%-16s global batch %d, per-GPU batch %d (%s)\n",
				s.Name, s.GlobalBatch, s.PerGPUBatch, s.Kind)
		}
		return nil
	}
	if *graphIn != "" {
		return runCustomGraph(*graphIn, *clustIn, *gpus, *servers, *iters, *workers, *seed, *timeline)
	}
	spec, err := models.ByName(*model)
	if err != nil {
		return err
	}
	if *export != "" {
		return exportModel(spec, *batch, *export)
	}
	cluster, err := buildCluster(*clustIn, *gpus, *servers)
	if err != nil {
		return err
	}
	ngpus, nservers := cluster.NumDevices(), cluster.Servers()

	perGPU, global := resolveBatch(spec, ngpus, *batch, *weak)
	fmt.Printf("%s on %d GPU(s) across %d server(s), global batch %d (%d per GPU)\n\n",
		spec.Name, ngpus, nservers, global, perGPU)

	m, err := spec.Build(perGPU)
	if err != nil {
		return fmt.Errorf("build model: %w", err)
	}
	dp, err := graph.BuildDataParallel(m, ngpus)
	if err != nil {
		return fmt.Errorf("replicate model: %w", err)
	}
	stats := dp.ComputeStats()
	fmt.Printf("training graph: %d ops, %d edges, %.1f GFLOPs/iter, %.1f MB parameters\n\n",
		stats.Ops, stats.Edges, float64(stats.TotalFLOPs)/1e9, float64(stats.ParamBytes)/1e6)

	engine := sim.NewEngine(cluster, kernels.NewDefaultOracle(cluster))
	dpIter, dpErr := measureDP(engine, cluster, dp, *iters, *seed)
	switch {
	case dpErr == nil:
		fmt.Printf("data parallel : %10v/iter  %10.1f samples/s\n",
			dpIter.Round(time.Microsecond), float64(global)/dpIter.Seconds())
	default:
		var oom *sim.OOMError
		if !errors.As(dpErr, &oom) {
			return dpErr
		}
		fmt.Printf("data parallel : OOM (%v)\n", dpErr)
	}

	train := dp
	if dpErr != nil {
		full, err := spec.Build(global)
		if err != nil {
			return fmt.Errorf("build full-batch model: %w", err)
		}
		if train, err = graph.BuildDataParallel(full, 1); err != nil {
			return fmt.Errorf("wrap full-batch model: %w", err)
		}
	}
	if *stratIn != "" {
		// Deploy a precomputed strategy: no cost-model bootstrap, no search —
		// validate the artifact against this graph and cluster and execute it.
		return runStrategyFile(*stratIn, cluster, train, global, *iters, *seed)
	}
	exec := sim.WrapEngine(engine)
	var plan *sim.FaultPlan
	if *faultsIn != "" {
		// The plan is armed after bootstrap: its times are relative to the
		// start of normal training, so the user does not need to know how
		// much simulated time pre-training consumes.
		if plan, err = sim.ReadPlanFile(*faultsIn); err != nil {
			return err
		}
		if err := plan.Validate(cluster.NumDevices()); err != nil {
			return err
		}
	}
	s, err := session.New(cluster, exec, train, session.Config{Seed: *seed, Sched: core.Options{
		MaxSplitOps:   8,
		MaxSyncGroups: 8,
		Workers:       *workers,
	}})
	if err != nil {
		return err
	}
	if *loadCost != "" {
		if err := loadCostsFile(s, *loadCost); err != nil {
			return err
		}
	}
	rep, err := s.Bootstrap()
	if err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	if plan != nil {
		for i := range plan.Faults {
			plan.Faults[i].AtNs += int64(exec.Epoch())
		}
		if err := exec.SetPlan(plan); err != nil {
			return fmt.Errorf("arm fault plan: %w", err)
		}
	}
	run, err := s.Run(*iters)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if *saveCost != "" {
		if err := saveCostsFile(s, *saveCost); err != nil {
			return err
		}
		fmt.Printf("cost models written to %s\n", *saveCost)
	}
	fmt.Printf("FastT         : %10v/iter  %10.1f samples/s  (start: %s, %d round(s), calc %v)\n",
		run.AvgIter.Round(time.Microsecond), float64(global)/run.AvgIter.Seconds(),
		rep.Start, len(rep.Rounds), rep.CalcWallTotal.Round(time.Millisecond))
	if dpErr == nil && dpIter > 0 {
		fmt.Printf("speedup       : %+.1f%%\n", (dpIter.Seconds()/run.AvgIter.Seconds()-1)*100)
	}

	if splits := s.ActiveSplits(); len(splits) > 0 {
		fmt.Println("\noperation split list:")
		for _, sp := range splits {
			fmt.Printf("  %s\n", sp)
		}
	}
	if plan != nil {
		fmt.Printf("\ninjected faults: %d event(s), %d device loss(es)\n",
			len(run.FaultEvents)+run.DeviceLosses, run.DeviceLosses)
		for _, ev := range run.FaultEvents {
			fmt.Printf("  %s\n", ev)
		}
		if run.DeviceLosses > 0 {
			fmt.Printf("recovery      : %d iteration(s) lost, %v simulated recovery, recompute wall %v\n",
				run.LostIterations, run.RecoveryTime.Round(time.Millisecond),
				run.RecomputeWall.Round(time.Millisecond))
			if run.Degraded != "" {
				fmt.Printf("                degraded to %s after exhausting retries\n", run.Degraded)
			} else {
				fmt.Printf("                resumed under a recomputed strategy on %d GPU(s)\n",
					s.Cluster().NumDevices())
			}
		}
	}
	counts := make(map[int]int)
	for _, d := range s.ActivePlacement() {
		counts[d]++
	}
	// Recovery may have shrunk the cluster; report the one actually in use.
	live := s.Cluster()
	fmt.Println("\nops per device:")
	for d := 0; d < live.NumDevices(); d++ {
		fmt.Printf("  %-14s %d\n", live.Device(d).Name, counts[d])
	}

	fmt.Println("\nutilization (last iteration):")
	if err := trace.WriteUtilization(os.Stdout, run.Last); err != nil {
		return err
	}
	if *timeline {
		fmt.Println("\ntimeline:")
		if err := trace.WriteTimeline(os.Stdout, run.Last, 100); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteChromeTrace(f, s.ActiveGraph(), run.Last); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("\nChrome trace written to %s\n", *traceOut)
	}
	if *spansOut != "" {
		f, err := os.Create(*spansOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteSpansCSV(f, s.ActiveGraph(), run.Last); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("span CSV written to %s\n", *spansOut)
	}
	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := s.ActiveGraph().WriteDOT(f, s.ActivePlacement()); err != nil {
			return fmt.Errorf("write dot: %w", err)
		}
		fmt.Printf("placed graph written to %s\n", *dotOut)
	}
	return nil
}

// measureDP runs the pinned data-parallel baseline.
func measureDP(engine *sim.Engine, cluster *device.Cluster, g *graph.Graph, iters int, seed int64) (time.Duration, error) {
	place, err := placement.DataParallel(g, cluster)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for i := 0; i < iters; i++ {
		res, err := engine.Run(g, place, sim.Config{Jitter: 0.02, Seed: seed + int64(i)})
		if err != nil {
			return 0, err
		}
		total += res.Makespan
	}
	return total / time.Duration(iters), nil
}

// runCustomGraph schedules a user-provided JSON graph with DPOS/OS-DPOS and
// simulates the result — the library path for graphs that are not in the
// model catalog.
func runCustomGraph(path, clusterSpec string, gpus, servers, iters, workers int, seed int64, timeline bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := graph.ReadJSON(f)
	if err != nil {
		return fmt.Errorf("read graph: %w", err)
	}
	if g.HasCycles() {
		return fmt.Errorf("graph has cycles; unroll it first (graph.Unroll)")
	}
	cluster, err := buildCluster(clusterSpec, gpus, servers)
	if err != nil {
		return err
	}
	oracle := kernels.NewDefaultOracle(cluster)
	st, err := core.ComputeStrategy(g, cluster, oracle, core.Options{MaxSplitOps: 8, MaxSyncGroups: 8, Workers: workers})
	if err != nil {
		return fmt.Errorf("compute strategy: %w", err)
	}
	if err := validate.Strategy(st, cluster, validate.Options{SkipMemory: true}); err != nil {
		return fmt.Errorf("strategy invalid: %w", err)
	}
	engine := sim.NewEngine(cluster, oracle)
	var total time.Duration
	var last *sim.Result
	for i := 0; i < iters; i++ {
		res, err := engine.Run(st.Graph, st.Placement, sim.Config{
			Discipline: sim.Priority,
			Priorities: st.Priorities,
			Jitter:     0.02,
			Seed:       seed + int64(i),
		})
		if err != nil {
			return err
		}
		total += res.Makespan
		last = res
	}
	avg := total / time.Duration(iters)
	fmt.Printf("custom graph: %d ops, FastT iteration %v (estimate %v)\n",
		st.Graph.NumOps(), avg.Round(time.Microsecond), st.Predicted.Round(time.Microsecond))
	if len(st.Splits) > 0 {
		fmt.Printf("split list: %v\n", st.Splits)
	}
	if timeline {
		return trace.WriteTimeline(os.Stdout, last, 100)
	}
	return nil
}

// exportModel writes a catalog model's training graph as JSON, usable with
// -graph or external tooling.
func exportModel(spec models.Spec, batch int, path string) error {
	if batch <= 0 {
		batch = spec.GlobalBatch
	}
	g, err := spec.Build(batch)
	if err != nil {
		return fmt.Errorf("build model: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := g.WriteJSON(f); err != nil {
		return fmt.Errorf("write graph: %w", err)
	}
	fmt.Printf("%s (batch %d): %d ops, %d edges written to %s\n",
		spec.Name, batch, g.NumOps(), g.NumEdges(), path)
	return nil
}

// startProfiles starts a CPU profile when cpuPath is non-empty and returns a
// stop function that finishes it and writes an exit heap profile to memPath
// (when non-empty), so search-time regressions can be diagnosed from a flag
// instead of a rebuilt binary.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuF *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuF = f
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			goruntime.GC() // report live objects, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// runCompute implements the `fastt compute` subcommand: run the bootstrap
// and strategy search offline, write the winning strategy as a versioned
// JSON artifact (plus, optionally, the learned cost models), then verify the
// artifact by reloading it from disk and executing it — the exact path a
// later `fastt -strategy` deployment takes.
func runCompute(argv []string) (retErr error) {
	fs := flag.NewFlagSet("fastt compute", flag.ExitOnError)
	var (
		model     = fs.String("model", "MLP", "benchmark model (see fastt -list)")
		gpus      = fs.Int("gpus", 2, "number of GPUs")
		replicas  = fs.Int("replicas", 0, "data-parallel replicas in the training graph (0 = one per GPU); set it to the old device count when recomputing with -seed-strategy after the cluster shrank, so the graph — and its fingerprint — stay those the seed was computed for")
		servers   = fs.Int("servers", 1, "number of servers (GPUs divide evenly)")
		batch     = fs.Int("batch", 0, "global batch override (0 = paper default)")
		weak      = fs.Bool("weak", false, "weak scaling (fixed per-GPU batch)")
		iters     = fs.Int("iters", 5, "verification iterations on the written artifact")
		seed      = fs.Int64("seed", 1, "random seed")
		workers   = fs.Int("workers", 0, "strategy-calculator worker goroutines (0 = all CPUs, 1 = sequential)")
		out       = fs.String("out", "strategy.json", "write the strategy artifact to this file")
		saveCost  = fs.String("save-costs", "", "write the learned cost models to this file")
		loadCost  = fs.String("load-costs", "", "preload cost models saved by an earlier run")
		maxRounds = fs.Int("rounds", 0, "max pre-training strategy-search rounds (0 = default)")
		seedStrat = fs.String("seed-strategy", "", "warm-start the search from a prior strategy artifact for the same model graph (e.g. one computed before the cluster changed)")
		clustIn   = fs.String("cluster", "", "heterogeneous cluster spec JSON (overrides -gpus/-servers; see device.ReadSpec)")
		bound     = fs.Bool("bound", false, "compute the reference lower bound on the ideal-system optimum and report the strategy's gap from it (optimal.Bound)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the strategy computation to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile taken at exit to this file")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); retErr == nil {
			retErr = perr
		}
	}()
	spec, err := models.ByName(*model)
	if err != nil {
		return err
	}
	cluster, err := buildCluster(*clustIn, *gpus, *servers)
	if err != nil {
		return err
	}
	ngpus := cluster.NumDevices()
	nrep := *replicas
	if nrep <= 0 {
		nrep = ngpus
	}
	perGPU, global := resolveBatch(spec, nrep, *batch, *weak)
	train, fullBatch, err := trainGraphFor(spec, cluster, nrep, perGPU, global)
	if err != nil {
		return err
	}
	if fullBatch {
		fmt.Println("data parallelism OOMs; searching over the full-batch model graph")
	}

	sched := core.Options{
		MaxSplitOps:   8,
		MaxSyncGroups: 8,
		Workers:       *workers,
		ComputeBound:  *bound,
	}
	if *seedStrat != "" {
		// Warm start: every bootstrap round's search prunes against the
		// prior artifact's re-evaluated makespan (see core.Options.Seed).
		// The fingerprint is checked up front so a seed for the wrong model
		// fails with a clear message instead of mid-bootstrap.
		prior, err := strategy.ReadFile(*seedStrat)
		if err != nil {
			return fmt.Errorf("seed strategy: %w", err)
		}
		if fp := strategy.Fingerprint(train); prior.Fingerprint != fp {
			return fmt.Errorf("seed strategy %s: %w: artifact %s, this graph %s",
				*seedStrat, strategy.ErrFingerprint, prior.Fingerprint, fp)
		}
		sched.Seed = prior
	}
	exec := sim.DefaultExecutor(cluster)
	s, err := session.New(cluster, exec, train, session.Config{Seed: *seed, MaxRounds: *maxRounds,
		Sched: sched})
	if err != nil {
		return err
	}
	if *loadCost != "" {
		if err := loadCostsFile(s, *loadCost); err != nil {
			return err
		}
	}
	// Ctrl-C cancels the running strategy search (plumbed through the core
	// candidate loops) instead of killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := s.BootstrapCtx(ctx)
	if err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}

	art := *s.ActiveArtifact()
	art.Provenance.Model = spec.Name
	if err := art.WriteFile(*out); err != nil {
		return fmt.Errorf("write artifact: %w", err)
	}
	fmt.Printf("%s on %d GPU(s): strategy artifact written to %s (origin %s, %d split(s), calc %v)\n",
		spec.Name, ngpus, *out, art.Provenance.Origin, len(art.Splits),
		rep.CalcWallTotal.Round(time.Millisecond))
	if *seedStrat != "" {
		fmt.Printf("warm start    : seed bound %v, seeded %d round(s), seed won %d round(s)\n",
			rep.SeedBound.Round(time.Microsecond), rep.SeededRounds, rep.SeedWonRounds)
	}
	if *bound {
		if rep.LowerBound > 0 {
			// Report the last bounded round's candidate: the pair the gap
			// was computed from (the active artifact can be the bootstrap
			// strategy, which carries no search prediction).
			var predicted time.Duration
			for _, r := range rep.Rounds {
				if r.LowerBound > 0 {
					predicted = r.Predicted
				}
			}
			fmt.Printf("bound         : ideal optimum >= %v (%s), predicted %v, gap <= %.1f%%\n",
				rep.LowerBound.Round(time.Microsecond), rep.BoundMethod,
				predicted.Round(time.Microsecond), rep.GapPct)
		} else {
			fmt.Println("bound         : unavailable")
		}
	}
	if *saveCost != "" {
		if err := saveCostsFile(s, *saveCost); err != nil {
			return err
		}
		fmt.Printf("cost models written to %s\n", *saveCost)
	}

	// Verify the artifact as a deployment would consume it: reload the file,
	// validate, materialize and execute.
	reloaded, err := strategy.ReadFile(*out)
	if err != nil {
		return fmt.Errorf("reload artifact: %w", err)
	}
	g, err := validate.ArtifactStrategy(reloaded, train, cluster, validate.Options{SkipMemory: true})
	if err != nil {
		return fmt.Errorf("written artifact invalid: %w", err)
	}
	avg, _, err := runArtifact(exec, g, reloaded, *iters, *seed)
	if err != nil {
		return fmt.Errorf("verify artifact: %w", err)
	}
	fmt.Printf("verified      : %10v/iter  %10.1f samples/s\n",
		avg.Round(time.Microsecond), float64(global)/avg.Seconds())
	fmt.Println(artifactExecLine(reloaded, avg))
	return nil
}

// runStrategyFile executes a precomputed strategy artifact against the
// deployment target: validate (schema, graph fingerprint, cluster shape,
// structural soundness), materialize the split graph, run.
func runStrategyFile(path string, cluster *device.Cluster, base *graph.Graph, global, iters int, seed int64) error {
	art, err := strategy.ReadFile(path)
	if err != nil {
		return err
	}
	g, err := validate.ArtifactStrategy(art, base, cluster, validate.Options{SkipMemory: true})
	if err != nil {
		return fmt.Errorf("artifact %s does not fit this deployment: %w", path, err)
	}
	avg, _, err := runArtifact(sim.DefaultExecutor(cluster), g, art, iters, seed)
	if err != nil {
		return err
	}
	fmt.Printf("strategy file : %10v/iter  %10.1f samples/s  (origin: %s, model: %s, %d split(s))\n",
		avg.Round(time.Microsecond), float64(global)/avg.Seconds(),
		art.Provenance.Origin, art.Provenance.Model, len(art.Splits))
	fmt.Println(artifactExecLine(art, avg))
	return nil
}

// runArtifact executes iters iterations of a validated artifact, using the
// same jitter and per-iteration seeds on every path so the compute-time
// verification run and a later deployment of the same file agree exactly.
func runArtifact(exec runtime.Executor, g *graph.Graph, art *strategy.Artifact, iters int, seed int64) (time.Duration, *runtime.Result, error) {
	var total time.Duration
	var last *runtime.Result
	for i := 0; i < iters; i++ {
		res, err := exec.Run(g, art, runtime.Config{Jitter: 0.02, Seed: seed + int64(i), EnforceOrder: true})
		if err != nil {
			return 0, nil, err
		}
		total += res.Makespan
		last = res
	}
	return total / time.Duration(iters), last, nil
}

// artifactExecLine renders the canonical execution line the CLI smoke test
// compares between `fastt compute`'s verification run and a later
// `fastt -strategy` run: the artifact digest plus the exact average makespan.
func artifactExecLine(art *strategy.Artifact, avg time.Duration) string {
	digest, err := strategy.HashJSON(art.WriteJSON)
	if err != nil {
		digest = "unhashable"
	}
	return fmt.Sprintf("artifact-exec: digest=%s avg=%dns", digest, avg.Nanoseconds())
}

// newTopology validates and builds the simulated cluster.
func newTopology(gpus, servers int) (*device.Cluster, error) {
	if gpus < 1 || servers < 1 || gpus%servers != 0 {
		return nil, fmt.Errorf("bad topology: %d GPUs on %d servers", gpus, servers)
	}
	return device.NewCluster(servers, gpus/servers)
}

// buildCluster resolves the deployment topology: the heterogeneous cluster
// spec file when -cluster is given (JSON; see device.ReadSpec for the
// format), the regular all-V100 -gpus/-servers grid otherwise.
func buildCluster(specPath string, gpus, servers int) (*device.Cluster, error) {
	if specPath == "" {
		return newTopology(gpus, servers)
	}
	spec, err := device.ReadSpecFile(specPath)
	if err != nil {
		return nil, err
	}
	return device.NewHeterogeneous(spec)
}

// resolveBatch applies the strong/weak scaling batch policy.
func resolveBatch(spec models.Spec, gpus, batchOvr int, weak bool) (perGPU, global int) {
	global = spec.GlobalBatch
	if batchOvr > 0 {
		global = batchOvr
	}
	perGPU = global / gpus
	if weak {
		perGPU = spec.PerGPUBatch
		global = perGPU * gpus
	}
	if perGPU < 1 {
		perGPU = 1
	}
	return perGPU, global
}

// trainGraphFor applies the paper's input-graph rule (Sec. 5.2): the
// data-parallel training graph when it executes without OOM, otherwise the
// plain model DAG at the full global batch. The second return reports
// whether the full-batch fallback was taken.
func trainGraphFor(spec models.Spec, cluster *device.Cluster, gpus, perGPU, global int) (*graph.Graph, bool, error) {
	m, err := spec.Build(perGPU)
	if err != nil {
		return nil, false, fmt.Errorf("build model: %w", err)
	}
	dp, err := graph.BuildDataParallel(m, gpus)
	if err != nil {
		return nil, false, fmt.Errorf("replicate model: %w", err)
	}
	place, err := placement.DataParallel(dp, cluster)
	if errors.Is(err, placement.ErrTooManyReplicas) {
		// More replicas than devices — the fault-recovery shape (`-replicas`
		// pins the graph to the pre-failure device count). Naive one-replica-
		// per-GPU placement does not exist, so skip the OOM precheck and let
		// the strategy search place the graph.
		return dp, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	engine := sim.NewEngine(cluster, kernels.NewDefaultOracle(cluster))
	if _, err := engine.Run(dp, place, sim.Config{}); err != nil {
		var oom *sim.OOMError
		if !errors.As(err, &oom) {
			return nil, false, err
		}
		full, err := spec.Build(global)
		if err != nil {
			return nil, false, fmt.Errorf("build full-batch model: %w", err)
		}
		train, err := graph.BuildDataParallel(full, 1)
		if err != nil {
			return nil, false, fmt.Errorf("wrap full-batch model: %w", err)
		}
		return train, true, nil
	}
	return dp, false, nil
}

// loadCostsFile preloads saved cost models into the session.
func loadCostsFile(s *session.Session, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.LoadCosts(f); err != nil {
		return fmt.Errorf("load costs %s: %w", path, err)
	}
	return nil
}

// saveCostsFile writes the session's learned cost models.
func saveCostsFile(s *session.Session, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.SaveCosts(f); err != nil {
		f.Close()
		return fmt.Errorf("save costs %s: %w", path, err)
	}
	return f.Close()
}
