package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"time"

	"fastt/internal/core"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/serve"
	"fastt/internal/strategy"
	"fastt/internal/validate"
)

// serveSched is the option set `fastt serve` runs every search under at its
// default flags.
var serveSched = core.Options{MaxSplitOps: 8, MaxSyncGroups: 8, Workers: 1}

// service is a strategy service configured as `fastt serve` configures it
// from its default flags, answering HTTP on a loopback port.
type service struct {
	svc    *serve.Service
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
}

// startService starts a service whose searches go through strategist, or
// through the in-process calculator when strategist is nil.
func startService(strategist core.Strategist) (*service, error) {
	svc := serve.New(serve.Config{
		CacheBytes:    256 << 20,
		Shards:        16,
		Sched:         serveSched,
		MaxQueue:      64,
		SearchTimeout: 60 * time.Second,
		Strategist:    strategist,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits until it has exited.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
}

// reply is one /v1/compute answer.
type reply struct {
	body []byte
	seed string // X-Fastt-Seed: how the search used a warm-start seed
}

// compute posts the request body made of pieces to /v1/compute. A status
// other than 200 is an error.
func (s *service) compute(pieces ...[]byte) (reply, error) {
	readers := make([]io.Reader, len(pieces))
	var size int64
	for i, p := range pieces {
		readers[i] = bytes.NewReader(p)
		size += int64(len(p))
	}
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/compute", io.MultiReader(readers...))
	if err != nil {
		return reply{}, err
	}
	req.ContentLength = size
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return reply{body: body, seed: resp.Header.Get(serve.SeedHeader)}, err
}

func (s *service) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := s.client.Get(s.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// envelope is a /v1/compute response body.
type envelope struct {
	Cached   bool            `json:"cached"`
	Key      string          `json:"key"`
	Artifact json.RawMessage `json:"artifact"`
}

// hitBody is a fingerprint-only request: the warm path, answerable only
// from the cache.
func hitBody(sh strategy.ClusterShape, fingerprint, costHash string) []byte {
	// Marshalling ints and strings cannot fail.
	b, _ := json.Marshal(struct {
		Cluster     strategy.ClusterShape `json:"cluster"`
		Fingerprint string                `json:"graphFingerprint"`
		CostHash    string                `json:"costHash,omitempty"`
	}{sh, fingerprint, costHash})
	return b
}

// fullPrefix opens a request that carries a whole graph; the graph's JSON
// follows, then optionally `,"costs":` and a cost model, then `}`.
func fullPrefix(model string, sh strategy.ClusterShape) []byte {
	return []byte(fmt.Sprintf(`{"model":%q,"cluster":{"servers":%d,"gpusPerServer":%d},"graph":`,
		model, sh.Servers, sh.GPUsPerServer))
}

// checkFresh checks a reply to a request whose key was not cached: it must
// be a fresh computation whose artifact validates on the request's graph
// and cluster. It returns the artifact and its bytes as served.
func checkFresh(body []byte, base *graph.Graph, sh strategy.ClusterShape) (*strategy.Artifact, []byte, error) {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, nil, fmt.Errorf("decode reply: %w", err)
	}
	if env.Cached {
		return nil, nil, errors.New("answered from the cache, but the key is new")
	}
	art, err := strategy.ReadJSON(bytes.NewReader(env.Artifact))
	if err != nil {
		return nil, nil, err
	}
	cluster, err := device.NewCluster(sh.Servers, sh.GPUsPerServer)
	if err != nil {
		return nil, nil, err
	}
	if _, err := validate.ArtifactStrategy(art, base, cluster, validate.Options{SkipMemory: true}); err != nil {
		return nil, nil, fmt.Errorf("invalid artifact: %w", err)
	}
	return art, env.Artifact, nil
}

// window is one open-loop run against a service.
type window struct {
	loop          *openLoop
	before, after serve.Stats
	peakHeapMB    float64
	queueMax      int64
}

// runWindow sends n requests at rate per second from nproc connections. In
// a traced window it also samples the deepest admission queue.
func runWindow(s *service, n int, rate float64, traced bool, send func(i int) error) (*window, error) {
	w := &window{}
	var err error
	if w.before, err = s.stats(); err != nil {
		return nil, err
	}
	var poll func()
	if traced {
		poll = func() { w.queueMax = max(w.queueMax, s.svc.Stats().QueueDepth) }
	}
	heap := watchHeap(poll)
	w.loop = runOpenLoop(n, time.Duration(float64(time.Second)/rate), nproc, func(i, _ int) error { return send(i) })
	w.peakHeapMB = heap.finish()
	w.after, err = s.stats()
	return w, err
}

// outcome counts the window's requests: a request fails when it errored or
// its answer failed a check (recorded in the loop's errors), and a success
// counts towards goodput within limit. group(i) is request i's latency
// group (see outcome.calmLatency).
func (w *window) outcome(limit time.Duration, group func(i int) int) *outcome {
	o := &outcome{elapsed: w.loop.elapsed(), attempted: len(w.loop.errs), peakHeapMB: w.peakHeapMB}
	lat := w.loop.latency()
	for i, err := range w.loop.errs {
		if err != nil {
			o.fail("request %d: %v", i, err)
			continue
		}
		o.latency = append(o.latency, lat[i])
		o.group = append(o.group, group(i))
		if lat[i] <= ms(limit) {
			o.good++
		}
	}
	o.goodput = float64(o.good) / o.elapsed.Seconds()
	return o
}

// serveLayers fills the serve and gen metrics of a traced window. ops and
// devices give each request's graph size and device count, or -1 for a
// request that cannot search.
func serveLayers(m map[string]float64, tr *tracer, log *searchLog, w *window, ops, devices []int) {
	l := w.loop
	base := l.start.Sub(tr.origin)
	reqs := make([]int, len(l.sent))
	for i := range l.sent {
		reqs[i] = tr.add(span{name: "gen.request", start: base + l.sent[i], end: base + l.done[i], req: i, lane: l.lane[i]})
	}
	// Attribute each search to the request that caused it: the earliest
	// unmatched request for the same graph size and device count whose round
	// trip contains the search. With at most nproc requests in flight, only
	// two concurrent requests for one graph size can be confused.
	searches := append([]search(nil), log.searches...)
	sort.Slice(searches, func(a, b int) bool { return searches[a].span < searches[b].span })
	matched := make([]bool, len(reqs))
	var pre, post sample
	for _, s := range searches {
		sp := tr.get(s.span)
		for i, id := range reqs {
			if matched[i] || ops[i] != s.ops || devices[i] != s.devices {
				continue
			}
			r := tr.get(id)
			if sp.start < r.start || sp.end > r.end {
				continue
			}
			matched[i] = true
			sp.parent, sp.req, sp.lane = id, i, r.lane
			tr.set(s.span, sp)
			pre = append(pre, ms(sp.start-r.start))
			post = append(post, ms(r.end-sp.end))
			break
		}
	}
	m["serve.pre_search_ms_p50"] = pre.quantile(0.5)
	m["serve.pre_search_ms_p90"] = pre.quantile(0.9)
	m["serve.search_ms_p50"] = tr.durations("core.search").quantile(0.5)
	m["serve.post_search_ms_p50"] = post.quantile(0.5)
	b, a := w.before, w.after
	hits, misses := float64(a.Cache.Hits-b.Cache.Hits), float64(a.Cache.Misses-b.Cache.Misses)
	m["serve.hit_share"] = ratio(hits, hits+misses)
	m["serve.coalesced"] = float64(a.Coalesced - b.Coalesced)
	m["serve.rejected"] = float64(a.Rejected - b.Rejected)
	m["serve.evictions"] = float64(a.Cache.Evictions - b.Cache.Evictions)
	m["serve.seeded"] = float64(a.Seeded - b.Seeded)
	m["serve.seed_won"] = float64(a.SeedWon - b.SeedWon)
	m["serve.queue_depth_max"] = float64(w.queueMax)
	m["gen.lag_ms_p99"] = l.lag().quantile(0.99)
	m["gen.sent"] = float64(len(reqs))
}

// hitCosts times cache hits on one key, directly through Service.Compute
// and over HTTP; the difference is what transport and JSON add.
func hitCosts(m map[string]float64, s *service, req *serve.Request, body []byte) error {
	const n = 500
	var direct, overHTTP sample
	for k := 0; k < n; k++ {
		t0 := time.Now()
		res, err := s.svc.Compute(context.Background(), req)
		if err != nil {
			return fmt.Errorf("direct hit: %w", err)
		}
		if res.Source != serve.SourceHit {
			return fmt.Errorf("direct call was a %s, not a hit", res.Source)
		}
		direct = append(direct, us(time.Since(t0)))
	}
	for k := 0; k < n; k++ {
		t0 := time.Now()
		if _, err := s.compute(body); err != nil {
			return fmt.Errorf("HTTP hit: %w", err)
		}
		overHTTP = append(overHTTP, us(time.Since(t0)))
	}
	m["serve.compute_hit_us"] = direct.quantile(0.5)
	m["serve.http_us"] = overHTTP.quantile(0.5) - direct.quantile(0.5)
	return nil
}
