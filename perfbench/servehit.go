package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"fastt/internal/core"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/models"
	"fastt/internal/runtime"
	"fastt/internal/serve"
	"fastt/internal/sim"
	"fastt/internal/strategy"
)

const (
	// hitRate is serve-hit's fixed open-loop rate in requests per second,
	// well below what the service answers on a 2-CPU host when saturated
	// (see README.md).
	hitRate = 1000.0
	// hitLimit is the latency within which a serve-hit answer counts
	// towards goodput.
	hitLimit = 50 * time.Millisecond
	// refreshEvery makes every hundredth serve-hit request a cost-refresh
	// miss, at fixed positions so that every seed's window has the same mix.
	refreshEvery = 100
	// zipfS is the Zipf exponent of key popularity.
	zipfS = 1.1
	// hitBatches is how many per-GPU batch sizes each serve-hit model is
	// built at.
	hitBatches = 16
)

// hitModels are the serve-hit models: small, so that set-up can warm
// hundreds of keys.
var hitModels = []string{"LeNet", "AlexNet"}

// hitShapes are the regular shapes of 2 to 8 devices every serve-hit graph
// is warmed on.
func hitShapes() []strategy.ClusterShape {
	var out []strategy.ClusterShape
	for servers := 1; servers <= 4; servers++ {
		for gpus := 1; servers*gpus <= 8; gpus++ {
			if servers*gpus >= 2 {
				out = append(out, shape(servers, gpus))
			}
		}
	}
	return out
}

// hitGraph is one serve-hit graph and what a cost refresh of it needs.
type hitGraph struct {
	model    string
	replicas int
	graph    *graph.Graph
	json     []byte
	fp       string
	cluster  *device.Cluster // one GPU per replica, where refreshes are profiled
	exec     runtime.Executor
	dp       *strategy.Artifact
}

// hitKey is one warmed cache key: a graph on a shape, priced by the
// service's kernel oracle.
type hitKey struct {
	graph int
	shape strategy.ClusterShape
	body  []byte // the fingerprint-only request
}

// hitDraw is one serve-hit request: a hit on a key, or a cost refresh that
// sends a cached graph with a newly learned cost model.
type hitDraw struct {
	key      int
	refresh  bool
	graph    int
	costSeed int64
}

// hitPlan draws n serve-hit requests over keys and graphs. Key popularity
// follows a Zipf law over a seeded ranking, which it also returns, most
// popular first.
func hitPlan(seed int64, n, keys, graphs int) ([]hitDraw, []int) {
	rng := rand.New(rand.NewSource(seed))
	rank := rng.Perm(keys)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(keys-1))
	plan := make([]hitDraw, n)
	for i := range plan {
		if i%refreshEvery == refreshEvery-1 {
			plan[i] = hitDraw{refresh: true, graph: rng.Intn(graphs), costSeed: rng.Int63()}
		} else {
			plan[i] = hitDraw{key: rank[zipf.Uint64()]}
		}
	}
	return plan, rank
}

// serveHit is the warm-service workload: an open loop of cache hits with a
// trickle of misses that write beside them.
type serveHit struct {
	seed    int64
	graphs  []hitGraph
	keys    []hitKey
	plan    []hitDraw
	rank    []int
	costs   [][]byte // per request: a refresh's learned cost model
	want    [][]byte // per key: the reply a hit must return, from the warm-up
	svc     *service
	tr      *tracer
	log     *searchLog
	replies []reply
}

func newServeHit(seed int64, seconds int) (runner, error) {
	h := &serveHit{seed: seed}
	for _, name := range hitModels {
		spec, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, replicas := range []int{2, 4} {
			for b := 1; b <= hitBatches; b++ {
				cluster, g, err := catalogGraph(spec, replicas, 8*b*replicas)
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
				h.graphs = append(h.graphs, hitGraph{model: name, replicas: replicas, graph: g, json: buf.Bytes(),
					fp: strategy.Fingerprint(g), cluster: cluster, exec: sim.DefaultExecutor(cluster), dp: dp})
			}
		}
	}
	for gi, g := range h.graphs {
		for _, sh := range hitShapes() {
			h.keys = append(h.keys, hitKey{graph: gi, shape: sh, body: hitBody(sh, g.fp, "")})
		}
	}
	h.plan, h.rank = hitPlan(seed, int(hitRate*float64(seconds)), len(h.keys), len(h.graphs))
	h.costs = make([][]byte, len(h.plan))
	for i, d := range h.plan {
		if !d.refresh {
			continue
		}
		g := h.graphs[d.graph]
		costs, err := profileCosts(g.exec, g.graph, g.dp, g.cluster, d.costSeed)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", g.model, err)
		}
		h.costs[i] = costs
	}
	return h, nil
}

// prepare starts a service and warms every key in order, recording the
// reply each later hit must repeat byte for byte.
func (h *serveHit) prepare(tr *tracer) error {
	h.tr, h.log = tr, &searchLog{}
	var strategist core.Strategist
	if tr != nil {
		strategist = tracedStrategist(tr, nil, h.log)
	}
	var err error
	if h.svc, err = startService(strategist); err != nil {
		return err
	}
	h.want = make([][]byte, len(h.keys))
	for k, key := range h.keys {
		g := h.graphs[key.graph]
		res, err := h.svc.svc.Compute(context.Background(), &serve.Request{Model: g.model, Graph: g.graph, Shape: key.shape})
		if err != nil {
			return fmt.Errorf("warm key %d: %w", k, err)
		}
		keyJSON, err := json.Marshal(res.Key.String())
		if err != nil {
			return err
		}
		h.want[k] = slices.Concat([]byte(`{"cached":true,"key":`), keyJSON, []byte(`,"artifact":`), res.ArtifactJSON, []byte("}\n"))
	}
	if tr != nil {
		tr.reset()
		h.log.searches = nil
	}
	return nil
}

func (h *serveHit) close() {
	if h.svc != nil {
		h.svc.close()
		h.svc = nil
	}
}

func (h *serveHit) body(i int) [][]byte {
	d := h.plan[i]
	if !d.refresh {
		return [][]byte{h.keys[d.key].body}
	}
	g := h.graphs[d.graph]
	return [][]byte{fullPrefix(g.model, shape(1, g.replicas)), g.json, []byte(`,"costs":`), h.costs[i], []byte("}")}
}

func (h *serveHit) measure() (*outcome, error) {
	n := len(h.plan)
	h.replies = make([]reply, n)
	w, err := runWindow(h.svc, n, hitRate, h.tr != nil, func(i int) error {
		var err error
		h.replies[i], err = h.svc.compute(h.body(i)...)
		return err
	})
	if err != nil {
		return nil, err
	}
	h.check(w.loop.errs)
	// A block is one second of requests, ten of them refreshes; the last
	// block takes the rest.
	blocks := max(n/int(hitRate), 1)
	o := w.outcome(hitLimit, func(i int) int { return min(i/int(hitRate), blocks-1) })
	o.blocks = true

	// Quality of what the hits serve: every graph's key on one server with
	// a GPU per replica, where data parallelism is defined.
	var speedups sample
	for k, key := range h.keys {
		g := h.graphs[key.graph]
		if key.shape != shape(1, g.replicas) {
			continue
		}
		var env envelope
		if err := json.Unmarshal(h.want[k], &env); err != nil {
			return nil, err
		}
		art, err := strategy.ReadJSON(bytes.NewReader(env.Artifact))
		if err != nil {
			return nil, err
		}
		cluster, err := device.NewCluster(key.shape.Servers, key.shape.GPUsPerServer)
		if err != nil {
			return nil, err
		}
		v, err := speedup(g.graph, art, cluster, h.seed)
		if err != nil {
			return nil, fmt.Errorf("speedup of key %d: %w", k, err)
		}
		speedups = append(speedups, v)
	}
	o.speedup, o.speedupN = speedups.geomean(), len(speedups)
	if h.tr == nil {
		return o, nil
	}
	return o, h.layers(o, w)
}

// check verifies every answer and stores a failed check as the request's
// error: a hit must be byte-identical to the reply that filled its key, and
// a refresh must be a fresh, valid computation.
func (h *serveHit) check(errs []error) {
	for i, d := range h.plan {
		if errs[i] != nil {
			continue
		}
		if !d.refresh {
			if !bytes.Equal(h.replies[i].body, h.want[d.key]) {
				errs[i] = errors.New("hit differs from the reply that filled its key")
			}
			continue
		}
		g := h.graphs[d.graph]
		if _, _, err := checkFresh(h.replies[i].body, g.graph, shape(1, g.replicas)); err != nil {
			errs[i] = err
		}
	}
}

// layers fills the per-layer metrics of a traced serve-hit window.
func (h *serveHit) layers(o *outcome, w *window) error {
	o.layers = map[string]float64{}
	var costs []costInput
	ops, devices := make([]int, len(h.plan)), make([]int, len(h.plan))
	for i, d := range h.plan {
		ops[i], devices[i] = -1, -1
		if d.refresh {
			g := h.graphs[d.graph]
			ops[i], devices[i] = g.graph.NumOps(), g.replicas
			if len(costs) < maxReplays {
				costs = append(costs, costInput{cluster: g.cluster, json: h.costs[i]})
			}
		}
	}
	if err := searchLayers(o.layers, h.tr, h.log, costs); err != nil {
		return err
	}
	serveLayers(o.layers, h.tr, h.log, w, ops, devices)
	key := h.keys[h.rank[0]]
	g := h.graphs[key.graph]
	return hitCosts(o.layers, h.svc, &serve.Request{Fingerprint: g.fp, Shape: key.shape}, key.body)
}
