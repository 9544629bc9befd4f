package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"fastt/internal/core"
	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/runtime"
	"fastt/internal/strategy"
	"fastt/internal/validate"
)

// Chrome trace tracks beyond the load generator's, which are numbered by
// connection from 0.
const (
	laneService = 100 // service searches not attributed to a request
	laneDirect  = 101 // direct per-layer calls after the window
)

// span is one timed call into a layer.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int           // id of the span that caused this one; 0 for a root
	req        int           // operation (session or request) served; -1 for none
	lane       int           // Chrome trace track
	work       int           // ops the call processed, where the layer has a count
}

// tracer keeps a traced window's spans in memory until the run writes them
// out. A span's id is its index plus one.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// reset drops every span, so that set-up work stays out of the window.
func (t *tracer) reset() {
	t.mu.Lock()
	t.origin, t.spans = time.Now(), nil
	t.mu.Unlock()
}

// open starts a span and returns its id.
func (t *tracer) open(name string, parent, req, lane int) int {
	return t.add(span{name: name, start: time.Since(t.origin), parent: parent, req: req, lane: lane})
}

// close ends span id, recording the work it did.
func (t *tracer) close(id, work int) {
	end := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].end, t.spans[id-1].work = end, work
	t.mu.Unlock()
}

// add records a span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans)
}

func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

func (t *tracer) set(id int, s span) {
	t.mu.Lock()
	t.spans[id-1] = s
	t.mu.Unlock()
}

// all returns a copy of every span, indexed by id-1.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations of the spans called name, in ms.
func (t *tracer) durations(name string) sample {
	var d sample
	for _, s := range t.all() {
		if s.name == name {
			d = append(d, ms(s.end-s.start))
		}
	}
	return d
}

// timed runs f as a direct call on the direct track and returns its
// duration in ms.
func (t *tracer) timed(name string, f func() error) (float64, error) {
	id := t.open("direct."+name, 0, -1, laneDirect)
	err := f()
	t.close(id, 0)
	s := t.get(id)
	return ms(s.end - s.start), err
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open: one track per lane, with each span's id,
// parent and request id in its args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	spans := t.all()
	events := make([]event, len(spans))
	for i, s := range spans {
		cat, _, _ := strings.Cut(s.name, ".")
		events[i] = event{
			Name: s.name, Cat: cat, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: s.lane,
			Args: map[string]int{"id": i + 1, "parent": s.parent, "req": s.req, "work": s.work},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scope names the operation and track that decorated calls currently serve.
// The train loop runs one session at a time and updates it between calls.
type scope struct{ parent, req, lane int }

// tracedExecutor is a runtime.Executor decorator: one span per simulator
// run.
type tracedExecutor struct {
	inner runtime.Executor
	tr    *tracer
	at    *scope
}

func (x tracedExecutor) Run(g *graph.Graph, art *strategy.Artifact, cfg runtime.Config) (*runtime.Result, error) {
	id := x.tr.open("sim.run", x.at.parent, x.at.req, x.at.lane)
	res, err := x.inner.Run(g, art, cfg)
	x.tr.close(id, g.NumOps())
	return res, err
}

// maxReplays bounds the searches whose inputs are kept for the direct
// per-layer calls, and the learned cost models kept for the decode timing.
const maxReplays = 8

// search is one strategy search seen by the traced Strategist.
type search struct {
	span, ops, devices int
	evaluated, pruned  int
	seeded, seedWon    bool
	// Inputs and output, kept for the first maxReplays searches only.
	g       *graph.Graph
	cluster *device.Cluster
	est     cost.Estimator
	opts    core.Options
	st      *core.Strategy
}

// searchLog collects the searches of a traced window.
type searchLog struct {
	mu       sync.Mutex
	searches []search
}

// tracedStrategist is a core.Strategist decorator around the in-process
// calculator: one span and one log entry per search. at is nil for the
// service, whose searches run on their own goroutines; serveLayers
// attributes them to requests after the window.
func tracedStrategist(tr *tracer, at *scope, log *searchLog) core.Strategist {
	return func(ctx context.Context, g *graph.Graph, cluster *device.Cluster, est cost.Estimator, opts core.Options) (*core.Strategy, error) {
		s := search{ops: g.NumOps(), devices: cluster.NumDevices()}
		log.mu.Lock()
		keep := len(log.searches) < maxReplays
		log.mu.Unlock()
		if keep {
			// Frozen, because a session keeps learning into its cost model
			// after the search returns.
			s.g, s.cluster, s.est, s.opts = g, cluster, cost.ReadSnapshot(est), opts
		}
		parent, req, lane := 0, -1, laneService
		if at != nil {
			parent, req, lane = at.parent, at.req, at.lane
		}
		s.span = tr.open("core.search", parent, req, lane)
		st, err := core.ComputeStrategyCtx(ctx, g, cluster, est, opts)
		tr.close(s.span, s.ops)
		if err != nil {
			return nil, err
		}
		s.evaluated, s.pruned, s.seeded, s.seedWon = st.Evaluated, st.Pruned, st.Seeded, st.SeedWon
		if keep {
			s.st = st
		}
		log.mu.Lock()
		log.searches = append(log.searches, s)
		log.mu.Unlock()
		return st, nil
	}
}

// costInput is a learned cost model as JSON, with the cluster it describes.
type costInput struct {
	cluster *device.Cluster
	json    []byte
}

// searchLayers fills the core, validate, strategy, graph and cost metrics:
// counts from the logged searches, times from the traced search spans, and
// the phase times from calling each layer's public functions directly on
// the kept inputs after the window.
func searchLayers(m map[string]float64, tr *tracer, log *searchLog, costs []costInput) error {
	var evaluated, pruned, seeded, won float64
	for _, s := range log.searches {
		evaluated += float64(s.evaluated)
		pruned += float64(s.pruned)
		if s.seeded {
			seeded++
		}
		if s.seedWon {
			won++
		}
	}
	search := tr.durations("core.search")
	m["core.search_ms_p50"] = search.quantile(0.5)
	m["core.search_ms_p90"] = search.quantile(0.9)
	m["core.evaluated"] = evaluated
	m["core.pruned"] = pruned
	m["core.prune_share"] = ratio(pruned, evaluated+pruned)
	m["core.seeded_share"] = ratio(seeded, float64(len(log.searches)))
	m["core.seed_won_share"] = ratio(won, seeded)

	ctx := context.Background()
	times := map[string]sample{}
	for _, s := range log.searches {
		if s.st == nil {
			continue
		}
		var buf bytes.Buffer
		if err := s.g.WriteJSON(&buf); err != nil {
			return err
		}
		var pins map[string]int
		pinned := func() core.Options {
			o := s.opts
			o.Pinned = pins
			return o
		}
		calls := []struct {
			name string
			f    func() error
		}{
			{"core.colocate", func() (err error) {
				pins, _, err = core.ColocateSyncCtx(ctx, s.g, s.cluster, s.est, s.opts)
				return err
			}},
			{"core.osdpos", func() error {
				_, err := core.OSDPOSCtx(ctx, s.g, s.cluster, s.est, pinned())
				return err
			}},
			{"core.search", func() error {
				_, err := core.ComputeStrategyCtx(ctx, s.g, s.cluster, s.est, s.opts)
				return err
			}},
			{"core.dpos", func() error {
				_, err := core.DPOS(s.g, s.cluster, s.est, pinned())
				return err
			}},
			{"core.ranks", func() error {
				_, err := core.ComputeRanks(s.g, s.cluster, s.est)
				return err
			}},
			{"validate.strategy", func() error {
				return validate.Strategy(s.st, s.cluster, validate.Options{SkipMemory: true})
			}},
			{"strategy.encode", func() error {
				_, err := json.Marshal(&s.st.Artifact)
				return err
			}},
			{"strategy.materialize", func() error {
				_, err := s.st.Artifact.Materialize(s.g)
				return err
			}},
			{"strategy.fingerprint", func() error {
				strategy.Fingerprint(s.g)
				return nil
			}},
			{"graph.decode", func() error {
				g, err := graph.ReadJSON(bytes.NewReader(buf.Bytes()))
				if err == nil && g.HasCycles() {
					err = errors.New("decoded graph has cycles")
				}
				return err
			}},
		}
		took := map[string]float64{}
		for _, c := range calls {
			v, err := tr.timed(c.name, c.f)
			if err != nil {
				return fmt.Errorf("direct %s: %w", c.name, err)
			}
			took[c.name] = v
			times[c.name] = append(times[c.name], v)
		}
		times["core.refine"] = append(times["core.refine"], took["core.search"]-took["core.colocate"]-took["core.osdpos"])
	}
	for _, c := range costs {
		v, err := tr.timed("cost.decode", func() error {
			return cost.NewModel(c.cluster).ReadJSON(bytes.NewReader(c.json))
		})
		if err != nil {
			return fmt.Errorf("direct cost.decode: %w", err)
		}
		times["cost.decode"] = append(times["cost.decode"], v)
	}
	for _, name := range []string{
		"core.colocate", "core.osdpos", "core.refine", "core.dpos", "core.ranks", "validate.strategy",
		"strategy.encode", "strategy.materialize", "strategy.fingerprint", "graph.decode", "cost.decode",
	} {
		m[name+"_ms"] = times[name].quantile(0.5)
	}
	return nil
}
