package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"fastt/internal/core"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
	"fastt/internal/session"
	"fastt/internal/sim"
)

// ScalingSetting is one column group of Tables 1 and 2.
type ScalingSetting struct {
	GPUs    int
	Servers int
}

// Label renders the setting as the paper's column headers do.
func (s ScalingSetting) Label() string {
	if s.Servers > 1 {
		return fmt.Sprintf("%dGPUs (%dservers)", s.GPUs, s.Servers)
	}
	if s.GPUs == 1 {
		return "1 GPU"
	}
	return fmt.Sprintf("%dGPUs", s.GPUs)
}

// Table1Settings are the strong-scaling columns of Table 1.
func Table1Settings() []ScalingSetting {
	return []ScalingSetting{
		{GPUs: 1, Servers: 1},
		{GPUs: 2, Servers: 1},
		{GPUs: 4, Servers: 1},
		{GPUs: 8, Servers: 1},
		{GPUs: 8, Servers: 2},
	}
}

// Table2Settings are the weak-scaling columns of Table 2.
func Table2Settings() []ScalingSetting {
	return []ScalingSetting{
		{GPUs: 1, Servers: 1},
		{GPUs: 2, Servers: 1},
		{GPUs: 4, Servers: 1},
		{GPUs: 8, Servers: 1},
		{GPUs: 16, Servers: 2},
	}
}

// ScalingRow is one model's row of Table 1 or 2.
type ScalingRow struct {
	Model string
	Batch int
	Cells []*Cell // one per setting, aligned with the settings slice
	// BestSpeedup is the maximal FastT-over-DP gain over the settings, in
	// percent (the tables' last column).
	BestSpeedup float64
}

// ScalingTable runs a full scaling table.
func ScalingTable(r *Runner, scaling Scaling, settings []ScalingSetting, modelNames []string) ([]ScalingRow, error) {
	rows := make([]ScalingRow, 0, len(modelNames))
	for _, name := range modelNames {
		spec, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		row := ScalingRow{Model: name, Batch: spec.GlobalBatch}
		if scaling == Weak {
			row.Batch = spec.PerGPUBatch
		}
		for _, set := range settings {
			cell, err := r.Cell(name, scaling, set.GPUs, set.Servers)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", name, set.Label(), err)
			}
			row.Cells = append(row.Cells, cell)
			if sp := cell.Speedup(); sp > row.BestSpeedup {
				row.BestSpeedup = sp
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table1 reproduces Table 1 (strong scaling) over all nine models.
func Table1(r *Runner) ([]ScalingRow, error) {
	return ScalingTable(r, Strong, Table1Settings(), catalogNames())
}

// Table2 reproduces Table 2 (weak scaling) over all nine models.
func Table2(r *Runner) ([]ScalingRow, error) {
	return ScalingTable(r, Weak, Table2Settings(), catalogNames())
}

func catalogNames() []string {
	cat := models.Catalog()
	names := make([]string, len(cat))
	for i, s := range cat {
		names[i] = s.Name
	}
	return names
}

// WriteScalingTable prints a scaling table in the paper's layout
// (samples/s; "OOM" where a configuration exceeds memory).
func WriteScalingTable(w io.Writer, title string, settings []ScalingSetting, rows []ScalingRow) error {
	if _, err := fmt.Fprintf(w, "%s\n%-24s", title, "Model(batch)"); err != nil {
		return err
	}
	fmt.Fprintf(w, " %10s", settings[0].Label())
	for _, s := range settings[1:] {
		fmt.Fprintf(w, " %10s-DP %7s-FastT", s.Label(), "")
	}
	fmt.Fprintf(w, " %9s\n", "Speedup")
	for _, row := range rows {
		fmt.Fprintf(w, "%-24s", fmt.Sprintf("%s(%d)", row.Model, row.Batch))
		fmt.Fprintf(w, " %10s", speedStr(row.Cells[0].DPSpeed, row.Cells[0].DPOOM))
		for _, c := range row.Cells[1:] {
			fmt.Fprintf(w, " %13s %13s",
				speedStr(c.DPSpeed, c.DPOOM), speedStr(c.FastTSpeed, c.FastTOOM))
		}
		fmt.Fprintf(w, " %8.1f%%\n", row.BestSpeedup)
	}
	return nil
}

func speedStr(v float64, oom bool) string {
	if oom {
		return "OOM"
	}
	if v <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}

// Table3Row is one row of Table 3 (BERT-large batch sweep on 2 GPUs).
type Table3Row struct {
	GlobalBatch int
	SingleIter  time.Duration // 1 GPU (OOM when zero and SingleOOM)
	SingleOOM   bool
	DPIter      time.Duration
	DPOOM       bool
	FastTIter   time.Duration
	FastTOOM    bool
}

// Table3 reproduces Table 3: per-iteration time of BERT-large at global
// batch 16/32/40/48 on one and two GPUs.
func Table3(r *Runner) ([]Table3Row, error) {
	rows := make([]Table3Row, 0, 4)
	for _, batch := range []int{16, 32, 40, 48} {
		row := Table3Row{GlobalBatch: batch}
		single, err := r.CellWithBatch("Bert-large", 1, 1, batch)
		if err != nil {
			return nil, fmt.Errorf("bert single batch %d: %w", batch, err)
		}
		row.SingleIter, row.SingleOOM = single.DPIter, single.DPOOM
		dual, err := r.CellWithBatch("Bert-large", 2, 1, batch)
		if err != nil {
			return nil, fmt.Errorf("bert dual batch %d: %w", batch, err)
		}
		row.DPIter, row.DPOOM = dual.DPIter, dual.DPOOM
		row.FastTIter, row.FastTOOM = dual.FastTIter, dual.FastTOOM
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteTable3 prints Table 3.
func WriteTable3(w io.Writer, rows []Table3Row) error {
	fmt.Fprintf(w, "Table 3: Bert-large per-iteration time (s)\n")
	fmt.Fprintf(w, "%-24s %12s %12s %12s\n", "Model(global batch)", "Single GPU", "2GPUs DP", "2GPUs FastT")
	for _, row := range rows {
		fmt.Fprintf(w, "%-24s %12s %12s %12s\n",
			fmt.Sprintf("Bert-large(%d)", row.GlobalBatch),
			iterStr(row.SingleIter, row.SingleOOM),
			iterStr(row.DPIter, row.DPOOM),
			iterStr(row.FastTIter, row.FastTOOM))
	}
	return nil
}

func iterStr(d time.Duration, oom bool) string {
	if oom {
		return "OOM"
	}
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", d.Seconds())
}

// Table4Row reports the strategy-computation time for one model and GPU
// count.
type Table4Row struct {
	Model string
	Batch int
	// CalcWall per GPU count, aligned with Table4GPUs.
	CalcWall []time.Duration
	// ParSpeedup is the one-shot strategy-computation speedup of the
	// parallel candidate search over the sequential calculator (Workers: 1)
	// at the largest GPU count; 0 when not measured.
	ParSpeedup float64
	// ParWorkers is the worker count behind ParSpeedup; ParSpeedup /
	// ParWorkers is the parallel efficiency column.
	ParWorkers int
	// Evaluated/Pruned count the OS-DPOS candidate evaluations completed
	// and aborted by bound-based pruning at the largest GPU count, across
	// all pre-training rounds — the work the incremental calculator did and
	// the work it proved unnecessary.
	Evaluated int
	Pruned    int
}

// Efficiency is ParSpeedup normalized by the worker count (1.0 = perfect
// linear scaling of the candidate search), 0 when not measured.
func (r Table4Row) Efficiency() float64 {
	if r.ParWorkers <= 0 {
		return 0
	}
	return r.ParSpeedup / float64(r.ParWorkers)
}

// Table4GPUs are the GPU counts of Table 4.
func Table4GPUs() []int { return []int{2, 4, 8} }

// Table4 reproduces Table 4: wall time to compute FastT's strategy (Alg. 2
// plus the colocation pass, over all pre-training rounds) per model and GPU
// count, measured on this machine. The last column compares the parallel
// candidate search against the sequential calculator on one strategy
// computation at the largest GPU count.
func Table4(r *Runner, modelNames []string) ([]Table4Row, error) {
	rows := make([]Table4Row, 0, len(modelNames))
	gpusMax := Table4GPUs()[len(Table4GPUs())-1]
	for _, name := range modelNames {
		spec, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		row := Table4Row{Model: name, Batch: spec.GlobalBatch}
		for _, gpus := range Table4GPUs() {
			cell, err := r.Cell(name, Strong, gpus, 1)
			if err != nil {
				return nil, fmt.Errorf("%s %d GPUs: %w", name, gpus, err)
			}
			row.CalcWall = append(row.CalcWall, cell.CalcWall)
			if gpus == gpusMax {
				row.Evaluated = cell.Evaluated
				row.Pruned = cell.Pruned
			}
		}
		sp, err := parSpeedup(r.cfg, spec, gpusMax)
		if err != nil {
			return nil, fmt.Errorf("%s parallel speedup: %w", name, err)
		}
		row.ParSpeedup = sp
		row.ParWorkers = core.Options{Workers: r.cfg.Workers}.WorkerCount()
		rows = append(rows, row)
	}
	return rows, nil
}

// parSpeedup times one full strategy computation sequentially (Workers: 1)
// and with the configured worker count, returning sequential/parallel wall
// time. Both runs produce byte-identical strategies by construction, so
// only the clock differs.
func parSpeedup(cfg Config, spec models.Spec, gpus int) (float64, error) {
	cluster, err := device.SingleServer(gpus)
	if err != nil {
		return 0, err
	}
	perGPU := spec.GlobalBatch / gpus
	if perGPU < 1 {
		perGPU = 1
	}
	m, err := spec.Build(perGPU)
	if err != nil {
		return 0, err
	}
	g, err := graph.BuildDataParallel(m, gpus)
	if err != nil {
		return 0, err
	}
	oracle := kernels.NewDefaultOracle(cluster)
	opts := core.Options{
		MaxSplitOps:   cfg.MaxSplitOps,
		MaxSyncGroups: cfg.MaxSyncGroups,
	}
	walls := make([]time.Duration, 2)
	for i, workers := range []int{1, cfg.Workers} {
		opts.Workers = workers
		start := time.Now()
		if _, err := core.ComputeStrategy(g, cluster, oracle, opts); err != nil {
			return 0, err
		}
		walls[i] = time.Since(start)
	}
	if walls[1] <= 0 {
		return 0, nil
	}
	return walls[0].Seconds() / walls[1].Seconds(), nil
}

// WriteTable4 prints Table 4.
func WriteTable4(w io.Writer, rows []Table4Row) error {
	fmt.Fprintf(w, "Table 4: time (s) to compute the strategy\n")
	fmt.Fprintf(w, "%-24s", "Model(global batch)")
	for _, g := range Table4GPUs() {
		fmt.Fprintf(w, " %10dGPUs", g)
	}
	fmt.Fprintf(w, " %14s %10s %12s\n", "Par speedup", "Eff", "Eval/Pruned")
	for _, row := range rows {
		fmt.Fprintf(w, "%-24s", fmt.Sprintf("%s(%d)", row.Model, row.Batch))
		for _, d := range row.CalcWall {
			fmt.Fprintf(w, " %14.3f", d.Seconds())
		}
		if row.ParSpeedup > 0 {
			fmt.Fprintf(w, " %13.2fx %10.3f", row.ParSpeedup, row.Efficiency())
		} else {
			fmt.Fprintf(w, " %14s %10s", "-", "-")
		}
		fmt.Fprintf(w, " %12s\n", fmt.Sprintf("%d/%d", row.Evaluated, row.Pruned))
	}
	return nil
}

// WorkerScalingRow reports one model's strategy-computation wall time
// across worker counts at a fixed GPU count (the `benchtab -what scaling`
// sweep): the worker-scaling picture Table 4's single Par-speedup column
// summarizes.
type WorkerScalingRow struct {
	Model string
	GPUs  int
	// Walls are the best-observed wall times, aligned with
	// WorkerScalingWorkers.
	Walls []time.Duration
}

// Efficiency is the parallel efficiency at the highest worker count:
// (sequential wall / parallel wall) / workers.
func (r WorkerScalingRow) Efficiency() float64 {
	n := len(r.Walls)
	if n < 2 || r.Walls[n-1] <= 0 {
		return 0
	}
	w := WorkerScalingWorkers()
	return (r.Walls[0].Seconds() / r.Walls[n-1].Seconds()) / float64(w[n-1])
}

// WorkerScalingWorkers are the worker counts of the scaling sweep.
func WorkerScalingWorkers() []int { return []int{1, 2, 4, 8} }

// WorkerScalingSweep times one full strategy computation per (model,
// workers) cell, best of `reps` runs (wall-clock minima are the
// least-noise estimator; scripts/bench.sh uses the same discipline). All
// cells of a row compute byte-identical strategies — only the clock
// varies.
func WorkerScalingSweep(cfg Config, modelNames []string, gpus, reps int) ([]WorkerScalingRow, error) {
	if reps < 1 {
		reps = 1
	}
	cfg = cfg.withDefaults()
	rows := make([]WorkerScalingRow, 0, len(modelNames))
	for _, name := range modelNames {
		spec, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		cluster, err := device.SingleServer(gpus)
		if err != nil {
			return nil, err
		}
		perGPU := spec.GlobalBatch / gpus
		if perGPU < 1 {
			perGPU = 1
		}
		m, err := spec.Build(perGPU)
		if err != nil {
			return nil, err
		}
		g, err := graph.BuildDataParallel(m, gpus)
		if err != nil {
			return nil, err
		}
		oracle := kernels.NewDefaultOracle(cluster)
		opts := core.Options{
			MaxSplitOps:   cfg.MaxSplitOps,
			MaxSyncGroups: cfg.MaxSyncGroups,
		}
		row := WorkerScalingRow{Model: name, GPUs: gpus}
		for _, workers := range WorkerScalingWorkers() {
			opts.Workers = workers
			best := time.Duration(0)
			for rep := 0; rep < reps; rep++ {
				start := time.Now()
				if _, err := core.ComputeStrategy(g, cluster, oracle, opts); err != nil {
					return nil, fmt.Errorf("%s workers=%d: %w", name, workers, err)
				}
				if wall := time.Since(start); best == 0 || wall < best {
					best = wall
				}
			}
			row.Walls = append(row.Walls, best)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteWorkerScaling prints the worker-sweep table.
func WriteWorkerScaling(w io.Writer, rows []WorkerScalingRow) error {
	if len(rows) == 0 {
		return nil
	}
	fmt.Fprintf(w, "Worker scaling: strategy computation wall time (ms), %d GPUs\n", rows[0].GPUs)
	fmt.Fprintf(w, "%-24s", "Model")
	for _, workers := range WorkerScalingWorkers() {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("w=%d", workers))
	}
	fmt.Fprintf(w, " %9s\n", "eff")
	for _, row := range rows {
		fmt.Fprintf(w, "%-24s", row.Model)
		for _, d := range row.Walls {
			fmt.Fprintf(w, " %9.2f", float64(d.Microseconds())/1000)
		}
		fmt.Fprintf(w, " %9.3f\n", row.Efficiency())
	}
	return nil
}

// Table5Row is one representative VGG-19 operation of Table 5.
type Table5Row struct {
	Op       string
	Time     time.Duration
	WeightKB float64
	Split    bool
}

// Table5 reproduces Table 5: the split decisions OS-DPOS (Alg. 2) makes
// for VGG-19 operations under VGG's best-speedup setting of Table 1
// (8 GPUs on 2 servers), with each op's execution time and weight size.
// The strategy is computed deterministically against ground-truth costs;
// the fixed representative rows of the paper are listed alongside every
// operation the algorithm actually split (an operation counts as split
// when any replica's instance of it was split).
func Table5(r *Runner) ([]Table5Row, error) {
	const gpus, servers = 8, 2
	cluster, err := device.NewCluster(servers, gpus/servers)
	if err != nil {
		return nil, err
	}
	oracle := kernels.NewDefaultOracle(cluster)
	spec, err := models.ByName("VGG-19")
	if err != nil {
		return nil, err
	}
	m, err := spec.Build(spec.GlobalBatch / gpus)
	if err != nil {
		return nil, err
	}
	g, err := graph.BuildDataParallel(m, gpus)
	if err != nil {
		return nil, err
	}
	st, err := core.ComputeStrategy(g, cluster, oracle, core.Options{
		MaxSplitOps:   r.cfg.MaxSplitOps,
		MaxSyncGroups: r.cfg.MaxSyncGroups,
	})
	if err != nil {
		return nil, err
	}
	split := make(map[string]bool, len(st.Splits))
	for _, s := range st.Splits {
		split[baseOpName(s.OpName)] = true
	}

	reps := []string{
		"conv1_1", "conv1_2", "conv1_2_bp",
		"relu_conv1_2", "pool1", "fc6",
	}
	seen := make(map[string]bool, len(reps))
	for _, b := range reps {
		seen[b] = true
	}
	for base := range split {
		if !seen[base] {
			reps = append(reps, base)
			seen[base] = true
		}
	}
	rows := make([]Table5Row, 0, len(reps))
	for _, base := range reps {
		op, ok := g.OpByName("rep0/" + base)
		if !ok {
			return nil, fmt.Errorf("representative op %q missing", base)
		}
		weight := op.ParamBytes
		if weight == 0 {
			// Weights moved to the shared variable; backward ops consume
			// the same weights as their forward twin.
			varBase := strings.TrimSuffix(base, "_bp")
			if v, ok := g.OpByName(graph.VariableName(varBase)); ok {
				weight = v.ParamBytes
			}
		}
		rows = append(rows, Table5Row{
			Op:       base,
			Time:     oracle.Exec(op, cluster.Device(0)),
			WeightKB: float64(weight) / 1024,
			Split:    split[base],
		})
	}
	return rows, nil
}

// baseOpName strips a data-parallel replica prefix ("rep3/conv1_2" ->
// "conv1_2").
func baseOpName(name string) string {
	if i := strings.Index(name, "/"); i >= 0 && strings.HasPrefix(name, "rep") {
		return name[i+1:]
	}
	return name
}

// WriteTable5 prints Table 5.
func WriteTable5(w io.Writer, rows []Table5Row) error {
	fmt.Fprintf(w, "Table 5: split decisions for representative VGG-19 operations\n")
	fmt.Fprintf(w, "%-18s %12s %14s %6s\n", "Operation", "Time(ms)", "Weight(KB)", "Split")
	for _, row := range rows {
		fmt.Fprintf(w, "%-18s %12.3f %14.3f %6v\n",
			row.Op, float64(row.Time)/float64(time.Millisecond), row.WeightKB, row.Split)
	}
	return nil
}

// Table6Row compares training with and without operation splitting.
type Table6Row struct {
	Model       string
	NoSplitIter time.Duration
	SplitIter   time.Duration
	SpeedupPct  float64
	KeySplitOps string // kinds of the split operations, "None" if none
}

// Table6 reproduces Table 6: per-iteration time with and without operation
// splitting, each model at its best-speedup setting of Table 1 (as the
// paper does), plus the key split operation kinds.
func Table6(r *Runner, modelNames []string) ([]Table6Row, error) {
	rows := make([]Table6Row, 0, len(modelNames))
	for _, name := range modelNames {
		cell, err := bestCell(r, name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		noSplit, err := runWithoutSplitting(r.cfg, name, cell.GPUs, cell.Servers)
		if err != nil {
			return nil, fmt.Errorf("%s no-split: %w", name, err)
		}
		row := Table6Row{
			Model:       name,
			NoSplitIter: noSplit,
			SplitIter:   cell.FastTIter,
			KeySplitOps: keySplitOps(cell),
		}
		if row.SplitIter > 0 && row.NoSplitIter > row.SplitIter {
			row.SpeedupPct = (noSplit.Seconds()/row.SplitIter.Seconds() - 1) * 100
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// bestCell returns the model's best-speedup multi-GPU cell of Table 1.
func bestCell(r *Runner, model string) (*Cell, error) {
	var best *Cell
	for _, set := range Table1Settings() {
		if set.GPUs == 1 {
			continue
		}
		cell, err := r.Cell(model, Strong, set.GPUs, set.Servers)
		if err != nil {
			return nil, err
		}
		if cell.FastTOOM {
			continue
		}
		if best == nil || cell.Speedup() > best.Speedup() {
			best = cell
		}
	}
	if best == nil {
		return nil, fmt.Errorf("no feasible setting for %s", model)
	}
	return best, nil
}

// runWithoutSplitting runs the FastT session with splitting disabled.
func runWithoutSplitting(cfg Config, model string, gpus, servers int) (time.Duration, error) {
	spec, err := models.ByName(model)
	if err != nil {
		return 0, err
	}
	cluster, err := device.NewCluster(servers, gpus/servers)
	if err != nil {
		return 0, err
	}
	perGPU := spec.GlobalBatch / gpus
	if perGPU < 1 {
		perGPU = 1
	}
	m, err := spec.Build(perGPU)
	if err != nil {
		return 0, err
	}
	g, err := graph.BuildDataParallel(m, gpus)
	if err != nil {
		return 0, err
	}
	s, err := session.New(cluster, sim.DefaultExecutor(cluster), g, session.Config{
		Seed:             cfg.Seed,
		MaxRounds:        cfg.MaxRounds,
		Jitter:           cfg.Jitter,
		DisableSplitting: true,
		Sched: core.Options{
			MaxSyncGroups: cfg.MaxSyncGroups,
			Workers:       cfg.Workers,
		},
	})
	if err != nil {
		return 0, err
	}
	if _, err := s.Bootstrap(); err != nil {
		return 0, err
	}
	stats, err := s.Run(cfg.MeasureIters)
	if err != nil {
		return 0, err
	}
	return stats.AvgIter, nil
}

// keySplitOps summarizes the kinds of a cell's split operations.
func keySplitOps(cell *Cell) string {
	if len(cell.Splits) == 0 || cell.FastTGraph == nil {
		return "None"
	}
	kinds := make(map[string]bool)
	for _, s := range cell.Splits {
		// The split op no longer exists; find a sub-op carrying its name.
		for _, op := range cell.FastTGraph.Ops() {
			if op.SplitOf == s.OpName && op.Kind != graph.KindSplit && op.Kind != graph.KindConcat {
				kinds[op.Kind.String()] = true
				break
			}
		}
	}
	if len(kinds) == 0 {
		return "None"
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	strings.Join(names, ",")
	return strings.Join(names, ",")
}

// WriteTable6 prints Table 6.
func WriteTable6(w io.Writer, rows []Table6Row) error {
	fmt.Fprintf(w, "Table 6: per-iteration time with/without operation split (4 GPUs)\n")
	fmt.Fprintf(w, "%-16s %10s %10s %9s  %s\n", "Model", "No split", "Split", "Speedup", "Key split op")
	for _, row := range rows {
		fmt.Fprintf(w, "%-16s %10.3f %10.3f %8.2f%%  %s\n",
			row.Model, row.NoSplitIter.Seconds(), row.SplitIter.Seconds(),
			row.SpeedupPct, row.KeySplitOps)
	}
	return nil
}
