package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"fastt/internal/core"
	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
	"fastt/internal/runtime"
	"fastt/internal/serve"
	"fastt/internal/sim"
	"fastt/internal/strategy"
)

const (
	// missRate is serve-miss's fixed open-loop rate in requests per second,
	// about 30% of what the service completes on a 2-CPU host when
	// saturated (see README.md). Every 5 seconds it sends 48 requests: one
	// pass over the 36 cells and 12 resizes.
	missRate = 9.6
	// missLimit is the latency within which a serve-miss answer counts
	// towards goodput.
	missLimit = time.Second
	// resizeEvery makes every fourth serve-miss request a resize.
	resizeEvery = 4
	// coldChecks is how many cold serve-miss answers are recomputed in
	// process and compared byte for byte.
	coldChecks = 4
)

// missCell is one serve-miss graph: a catalog model at its strong-scaling
// batch, or half of it, replicated over one server of 2 or 4 GPUs. The half
// batch doubles the distinct graphs, and so the resize keys.
type missCell struct {
	model   string
	graph   *graph.Graph
	json    []byte
	cluster *device.Cluster
	exec    runtime.Executor
	dp      *strategy.Artifact
}

// missDraw is one serve-miss request: a cell on a cluster shape. A full
// request carries a cost model learned by a profiling run with its own
// seed. A resize sends a graph already requested on a neighbouring shape,
// without costs, so the service can seed its search from a cached answer.
type missDraw struct {
	cell     int
	shape    strategy.ClusterShape
	resize   bool
	costSeed int64
}

// neighbours are the regular shapes next to one server of gpus GPUs: a GPU
// fewer or more, or the same GPUs over two servers.
func neighbours(gpus int) []strategy.ClusterShape {
	var out []strategy.ClusterShape
	if gpus > 2 {
		out = append(out, shape(1, gpus-1))
	}
	return append(out, shape(1, gpus+1), shape(2, gpus/2))
}

// missCostSeed is the profiling seed of a cell's visit-th full request. It
// does not depend on the run's seed: a search's work varies with its cost
// model, so every seed's window sends the same cost models, in another
// order, and the spread between seeds measures the host, not the draw.
func missCostSeed(cell, visit int) int64 { return int64(cell)<<32 | int64(visit+1) }

// missPlan draws n serve-miss requests over cells whose GPU counts are
// gpus. Every request is a new cache key: full requests differ in their
// cost model, and each cell is resized to each neighbouring shape at most
// once. Full requests visit the cells in seeded passes without replacement
// and resizes come at fixed positions, so that every seed's window has
// nearly the same mix of work.
func missPlan(seed int64, n int, gpus []int) []missDraw {
	rng := rand.New(rand.NewSource(seed))
	var open []missDraw // resizes of cells already requested
	var pass []int      // cells left in the current pass
	visits := make([]int, len(gpus))
	plan := make([]missDraw, 0, n)
	for len(plan) < n {
		if len(open) > 0 && len(plan)%resizeEvery == resizeEvery-1 {
			k := rng.Intn(len(open))
			plan = append(plan, open[k])
			open[k] = open[len(open)-1]
			open = open[:len(open)-1]
			continue
		}
		if len(pass) == 0 {
			pass = rng.Perm(len(gpus))
		}
		c := pass[0]
		pass = pass[1:]
		plan = append(plan, missDraw{cell: c, shape: shape(1, gpus[c]), costSeed: missCostSeed(c, visits[c])})
		visits[c]++
		if visits[c] == 1 {
			for _, sh := range neighbours(gpus[c]) {
				open = append(open, missDraw{cell: c, shape: sh, resize: true})
			}
		}
	}
	return plan
}

// serveMiss is the cold-service workload: an open loop in which every
// request is a new key.
type serveMiss struct {
	seed    int64
	cells   []missCell
	plan    []missDraw
	costs   [][]byte // per request: the learned cost model; nil for a resize
	svc     *service
	tr      *tracer
	log     *searchLog
	replies []reply
}

func newServeMiss(seed int64, seconds int) (runner, error) {
	m := &serveMiss{seed: seed}
	var gpus []int
	for _, spec := range models.Catalog() {
		for _, n := range []int{2, 4} {
			for _, global := range []int{spec.GlobalBatch, spec.GlobalBatch / 2} {
				cluster, g, err := catalogGraph(spec, n, global)
				if err != nil {
					return nil, err
				}
				dp, err := dpArtifact(g, cluster)
				if err != nil {
					return nil, err
				}
				var buf bytes.Buffer
				if err := g.WriteJSON(&buf); err != nil {
					return nil, err
				}
				m.cells = append(m.cells, missCell{model: spec.Name, graph: g, json: buf.Bytes(), cluster: cluster,
					exec: sim.DefaultExecutor(cluster), dp: dp})
				gpus = append(gpus, n)
			}
		}
	}
	m.plan = missPlan(seed, int(missRate*float64(seconds)), gpus)
	m.costs = make([][]byte, len(m.plan))
	for i, d := range m.plan {
		if d.resize {
			continue
		}
		c := m.cells[d.cell]
		costs, err := profileCosts(c.exec, c.graph, c.dp, c.cluster, d.costSeed)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", c.model, err)
		}
		m.costs[i] = costs
	}
	return m, nil
}

func (m *serveMiss) prepare(tr *tracer) error {
	m.tr, m.log = tr, &searchLog{}
	var strategist core.Strategist
	if tr != nil {
		strategist = tracedStrategist(tr, nil, m.log)
	}
	var err error
	m.svc, err = startService(strategist)
	return err
}

func (m *serveMiss) close() {
	if m.svc != nil {
		m.svc.close()
		m.svc = nil
	}
}

// body returns request i's body in pieces.
func (m *serveMiss) body(i int) [][]byte {
	d := m.plan[i]
	c := m.cells[d.cell]
	if d.resize {
		return [][]byte{fullPrefix(c.model, d.shape), c.json, []byte("}")}
	}
	return [][]byte{fullPrefix(c.model, d.shape), c.json, []byte(`,"costs":`), m.costs[i], []byte("}")}
}

func (m *serveMiss) measure() (*outcome, error) {
	n := len(m.plan)
	m.replies = make([]reply, n)
	w, err := runWindow(m.svc, n, missRate, m.tr != nil, func(i int) error {
		var err error
		m.replies[i], err = m.svc.compute(m.body(i)...)
		return err
	})
	if err != nil {
		return nil, err
	}
	arts := m.check(w.loop.errs)
	// Full requests are grouped by cell. Resizes, fewer, are grouped by model
	// and GPU count: the cells come in pairs of the two batch sizes.
	o := w.outcome(missLimit, func(i int) int {
		d := m.plan[i]
		if d.resize {
			return len(m.cells) + d.cell/2
		}
		return d.cell
	})

	// Quality of the answers: the first full request of every cell.
	var speedups sample
	simulated := make([]bool, len(m.cells))
	for i, d := range m.plan {
		if d.resize || arts[i] == nil || simulated[d.cell] {
			continue
		}
		simulated[d.cell] = true
		c := m.cells[d.cell]
		v, err := speedup(c.graph, arts[i], c.cluster, m.seed^d.costSeed)
		if err != nil {
			return nil, fmt.Errorf("speedup of request %d: %w", i, err)
		}
		speedups = append(speedups, v)
	}
	o.speedup, o.speedupN = speedups.geomean(), len(speedups)
	if m.tr == nil {
		return o, nil
	}
	return o, m.layers(o, w, arts)
}

// check verifies every answer and stores a failed check as the request's
// error: each answer must be a fresh, valid computation, and a sample of
// the cold ones must be byte-identical to core.ComputeStrategy on the same
// inputs. It returns the answered artifacts.
func (m *serveMiss) check(errs []error) []*strategy.Artifact {
	arts := make([]*strategy.Artifact, len(m.plan))
	raw := make([][]byte, len(m.plan))
	var cold []int
	for i, d := range m.plan {
		if errs[i] != nil {
			continue
		}
		art, b, err := checkFresh(m.replies[i].body, m.cells[d.cell].graph, d.shape)
		if err != nil {
			errs[i] = err
			continue
		}
		arts[i], raw[i] = art, b
		if m.replies[i].seed == "" {
			cold = append(cold, i)
		}
	}
	rng := rand.New(rand.NewSource(m.seed))
	rng.Shuffle(len(cold), func(a, b int) { cold[a], cold[b] = cold[b], cold[a] })
	for _, i := range cold[:min(coldChecks, len(cold))] {
		want, err := m.coldAnswer(i)
		if err == nil && !bytes.Equal(want, raw[i]) {
			err = errors.New("cold answer differs from core.ComputeStrategy on the same inputs")
		}
		if err != nil {
			errs[i], arts[i] = err, nil
		}
	}
	return arts
}

// estimator decodes request i's cost model as the service does, or returns
// the kernel oracle the service prices a cost-less request with, and the
// cost hash the request's key carries.
func (m *serveMiss) estimator(i int) (*device.Cluster, cost.Estimator, string, error) {
	d := m.plan[i]
	cluster, err := device.NewCluster(d.shape.Servers, d.shape.GPUsPerServer)
	if err != nil {
		return nil, nil, "", err
	}
	if d.resize {
		return cluster, kernels.NewDefaultOracle(cluster), "", nil
	}
	model := cost.NewModel(cluster)
	if err := model.ReadJSON(bytes.NewReader(m.costs[i])); err != nil {
		return nil, nil, "", err
	}
	return cluster, model, serve.CostHashOf(model), nil
}

// coldAnswer computes request i in process, as the service does without a
// seed, and returns the artifact JSON it would serve.
func (m *serveMiss) coldAnswer(i int) ([]byte, error) {
	d := m.plan[i]
	c := m.cells[d.cell]
	cluster, est, costHash, err := m.estimator(i)
	if err != nil {
		return nil, err
	}
	st, err := core.ComputeStrategy(c.graph, cluster, est, serveSched)
	if err != nil {
		return nil, err
	}
	art := st.Artifact
	art.Provenance = strategy.Provenance{Model: c.model, Origin: "fastt-serve", Cluster: d.shape, CostHash: costHash}
	return json.Marshal(&art)
}

// layers fills the per-layer metrics of a traced serve-miss window.
func (m *serveMiss) layers(o *outcome, w *window, arts []*strategy.Artifact) error {
	o.layers = map[string]float64{}
	var costs []costInput
	ops, devices := make([]int, len(m.plan)), make([]int, len(m.plan))
	first := -1
	for i, d := range m.plan {
		c := m.cells[d.cell]
		ops[i], devices[i] = c.graph.NumOps(), d.shape.NumDevices()
		if !d.resize && len(costs) < maxReplays {
			costs = append(costs, costInput{cluster: c.cluster, json: m.costs[i]})
		}
		if first < 0 && arts[i] != nil {
			first = i
		}
	}
	if err := searchLayers(o.layers, m.tr, m.log, costs); err != nil {
		return err
	}
	serveLayers(o.layers, m.tr, m.log, w, ops, devices)
	if first < 0 {
		return errors.New("no request succeeded")
	}
	d := m.plan[first]
	_, _, costHash, err := m.estimator(first)
	if err != nil {
		return err
	}
	fp := strategy.Fingerprint(m.cells[d.cell].graph)
	req := &serve.Request{Fingerprint: fp, Shape: d.shape, CostHash: costHash}
	return hitCosts(o.layers, m.svc, req, hitBody(d.shape, fp, costHash))
}
