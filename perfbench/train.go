package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"time"

	"fastt/internal/core"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/models"
	"fastt/internal/runtime"
	"fastt/internal/session"
	"fastt/internal/sim"
	"fastt/internal/strategy"
	"fastt/internal/validate"
)

const (
	// trainMinPasses makes a train window at least 6 × 27 = 162 sessions,
	// so that every cell's session runs at least six times.
	trainMinPasses = 6
	// trainLimit is the converge time within which a session counts
	// towards goodput.
	trainLimit = 2 * time.Second
	// trainReplays is how many sessions of the first pass are run again to
	// check that the simulated quality numbers repeat exactly.
	trainReplays = 2
)

// trainCell is one catalog configuration of the train workload: a model at
// its strong-scaling batch, replicated data-parallel over one server's GPUs.
type trainCell struct {
	model   string
	cluster *device.Cluster
	graph   *graph.Graph
	dpIter  time.Duration // simulated data-parallel iteration, the speedup baseline
}

// trainDraw is one session of the closed loop: a cell and the session seed.
type trainDraw struct {
	cell int
	seed int64
}

// trainSessionSeed is the session seed of a cell. It does not depend on the
// run's seed: a session's search work varies with its seed, and the 90th
// percentile of 27 cells is the third slowest, so with seeded sessions the
// spread between runs measured the draw, not the host. Every pass runs the
// same session of a cell, so that latency_ms_* can take its fastest run.
func trainSessionSeed(cell int) int64 { return int64(cell) + 1 }

// trainPass draws one pass over the catalog: every cell once, in a seeded
// order. Drawing without replacement keeps every window's model mix the
// same, so the run's seed moves only the order and the data-parallel
// baseline's simulated noise.
func trainPass(rng *rand.Rand, cells int) []trainDraw {
	pass := make([]trainDraw, cells)
	for i, c := range rng.Perm(cells) {
		pass[i] = trainDraw{cell: c, seed: trainSessionSeed(c)}
	}
	return pass
}

// train is the closed-loop training workload: one session at a time, as a
// training node runs them.
type train struct {
	seed    int64
	seconds int
	cells   []trainCell
	tr      *tracer
	costs   []costInput // learned cost models of the first traced sessions
}

func newTrain(seed int64, seconds int) (runner, error) {
	t := &train{seed: seed, seconds: seconds}
	rng := rand.New(rand.NewSource(seed))
	for _, spec := range models.Catalog() {
		for _, gpus := range []int{2, 4, 8} {
			cluster, g, err := catalogGraph(spec, gpus, spec.GlobalBatch)
			if err != nil {
				return nil, err
			}
			dp, err := dpArtifact(g, cluster)
			if err != nil {
				return nil, err
			}
			dpIter, err := simIteration(sim.DefaultExecutor(cluster), g, dp, rng.Int63())
			if err != nil {
				return nil, fmt.Errorf("%s@%d data-parallel: %w", spec.Name, gpus, err)
			}
			t.cells = append(t.cells, trainCell{model: spec.Name, cluster: cluster, graph: g, dpIter: dpIter})
		}
	}
	return t, nil
}

func (t *train) prepare(tr *tracer) error {
	t.tr, t.costs = tr, nil
	return nil
}

func (t *train) close() {}

// trained is one finished session.
type trained struct {
	draw     trainDraw
	converge time.Duration // session.New until Bootstrap returns
	total    time.Duration // session.New until Run returns
	report   *session.Report
	avgIter  time.Duration
	art      *strategy.Artifact
}

// trainSched is the train workload's search options. One search worker:
// with one per CPU, how much each search prunes depends on how its workers
// interleave, and runs of one session on one seed spread by a fifth.
var trainSched = core.Options{MaxSplitOps: 8, MaxSyncGroups: 8, Workers: 1}

// session runs one session — New, Bootstrap, Run(iters) — on the simulator
// with the in-process calculator. In a traced window the executor and the
// calculator are decorated, and at names the session's spans.
func (t *train) session(d trainDraw, at *scope, log *searchLog) (*trained, error) {
	// Each session gets its own copy of the graph and starts from a
	// collected heap, as in a fresh training process. With one copy per
	// cell, where in memory the copy happened to lie made every run of a
	// cell's session in one process fast or slow together, by up to a
	// third.
	c := t.cells[d.cell]
	g := c.graph.Clone()
	goruntime.GC()
	var exec runtime.Executor = sim.DefaultExecutor(c.cluster)
	cfg := session.Config{Seed: d.seed, Sched: trainSched}
	var boot int
	if t.tr != nil {
		exec = tracedExecutor{inner: exec, tr: t.tr, at: at}
		cfg.Strategist = tracedStrategist(t.tr, at, log)
		boot = t.tr.open("session.bootstrap", 0, at.req, 0)
		at.parent = boot
	}
	start := time.Now()
	s, err := session.New(c.cluster, exec, g, cfg)
	if err != nil {
		return nil, err
	}
	rep, err := s.Bootstrap()
	if err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	r := &trained{draw: d, converge: time.Since(start), report: rep}
	if t.tr != nil {
		t.tr.close(boot, c.graph.NumOps())
		at.parent = t.tr.open("session.run", 0, at.req, 0)
	}
	stats, err := s.Run(iters)
	r.total = time.Since(start)
	if t.tr != nil {
		t.tr.close(at.parent, 0)
	}
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	r.avgIter, r.art = stats.AvgIter, s.ActiveArtifact()
	if t.tr != nil && len(t.costs) < maxReplays {
		var buf bytes.Buffer
		if err := s.SaveCosts(&buf); err != nil {
			return nil, err
		}
		t.costs = append(t.costs, costInput{cluster: c.cluster, json: buf.Bytes()})
	}
	return r, nil
}

func (t *train) name(d trainDraw) string {
	c := t.cells[d.cell]
	return fmt.Sprintf("%s@%d seed %d", c.model, c.cluster.NumDevices(), d.seed)
}

func (t *train) measure() (*outcome, error) {
	rng := rand.New(rand.NewSource(t.seed))
	o := &outcome{}
	log := &searchLog{}
	at := &scope{}
	var done []*trained
	firstPass := len(t.cells)
	heap := watchHeap(nil)
	start := time.Now()
	window := time.Duration(t.seconds) * time.Second
	// Each cell's shortest whole session (New until Run returns) and
	// shortest converge time.
	bestTotal := make([]time.Duration, len(t.cells))
	bestConverge := make([]time.Duration, len(t.cells))
	for pass := 0; pass < trainMinPasses || time.Since(start) < window; pass++ {
		for _, d := range trainPass(rng, len(t.cells)) {
			at.req = o.attempted
			o.attempted++
			r, err := t.session(d, at, log)
			if err != nil {
				o.fail("session %s: %v", t.name(d), err)
				continue
			}
			done = append(done, r)
			o.latency = append(o.latency, ms(r.converge))
			o.group = append(o.group, d.cell)
			if r.converge <= trainLimit {
				o.good++
			}
			if bestTotal[d.cell] == 0 || r.total < bestTotal[d.cell] {
				bestTotal[d.cell] = r.total
			}
			if bestConverge[d.cell] == 0 || r.converge < bestConverge[d.cell] {
				bestConverge[d.cell] = r.converge
			}
		}
	}
	o.elapsed = time.Since(start)
	o.peakHeapMB = heap.finish()
	// Goodput from each cell's fastest session, as latency_ms_* are (see
	// outcome.calmLatency): sessions per second of a pass over the catalog
	// in which every cell's session ran as fast as its fastest run.
	var good int
	var bestPass time.Duration
	for c, total := range bestTotal {
		bestPass += total
		if total > 0 && bestConverge[c] <= trainLimit {
			good++
		}
	}
	o.goodput = ratio(float64(good), bestPass.Seconds())

	var speedups sample
	var pretrain time.Duration
	var first []*trained
	for _, r := range done {
		c := t.cells[r.draw.cell]
		if _, err := validate.ArtifactStrategy(r.art, c.graph, c.cluster, validate.Options{SkipMemory: true}); err != nil {
			o.fail("session %s: invalid strategy: %v", t.name(r.draw), err)
		}
	}
	for i, r := range done {
		if i >= firstPass || r == nil {
			break
		}
		first = append(first, r)
		speedups = append(speedups, float64(t.cells[r.draw.cell].dpIter)/float64(r.avgIter))
		pretrain += r.report.SimulatedOverhead
	}
	o.speedup, o.speedupN = speedups.geomean(), len(speedups)

	// The simulated quality numbers must repeat exactly for a seed: rerun
	// the first sessions untraced and compare.
	plain := &train{seed: t.seed, cells: t.cells}
	for _, r := range first[:min(trainReplays, len(first))] {
		o.attempted++
		again, err := plain.session(r.draw, nil, nil)
		switch {
		case err != nil:
			o.fail("replay %s: %v", t.name(r.draw), err)
		case again.report.SimulatedOverhead != r.report.SimulatedOverhead || again.avgIter != r.avgIter:
			o.fail("replay %s: pre-training %v and iteration %v, first run %v and %v", t.name(r.draw),
				again.report.SimulatedOverhead, again.avgIter, r.report.SimulatedOverhead, r.avgIter)
		}
	}
	if t.tr == nil {
		return o, nil
	}
	o.layers = map[string]float64{"session.pretrain_sim_s": pretrain.Seconds(), "gen.sent": float64(o.attempted)}
	return o, t.layers(o.layers, log, done)
}

// layers fills the per-layer metrics of a traced train window.
func (t *train) layers(m map[string]float64, log *searchLog, done []*trained) error {
	if err := searchLayers(m, t.tr, log, t.costs); err != nil {
		return err
	}
	spans := t.tr.all()
	var simMs sample
	var ops float64
	covered := map[int]time.Duration{} // span id -> time its children cover
	for _, s := range spans {
		if s.name == "sim.run" {
			simMs = append(simMs, ms(s.end-s.start))
			ops += float64(s.work)
		}
		if s.parent != 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	m["sim.run_ms_p50"] = simMs.quantile(0.5)
	m["sim.runs"] = float64(len(simMs))
	m["sim.ops_per_s"] = ratio(ops, simMs.sum()/1000)
	var self sample
	for i, s := range spans {
		if s.name == "session.bootstrap" {
			self = append(self, ms(s.end-s.start-covered[i+1]))
		}
	}
	m["session.self_ms"] = self.quantile(0.5)
	var rounds, activated, rolledBack float64
	var predictErr sample
	for _, r := range done {
		for _, rd := range r.report.Rounds {
			rounds++
			if rd.RolledBack {
				rolledBack++
			}
			if rd.Activated {
				activated++
				predictErr = append(predictErr, 100*math.Abs(float64(rd.Predicted-rd.Measured))/float64(rd.Measured))
			}
		}
	}
	m["session.rounds"] = ratio(rounds, float64(len(done)))
	m["session.activated_share"] = ratio(activated, rounds)
	m["session.rollback_share"] = ratio(rolledBack, rounds)
	m["cost.predict_err_pct"] = predictErr.mean()
	return nil
}
