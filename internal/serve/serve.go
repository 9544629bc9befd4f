// Package serve is the strategy-as-a-service daemon behind `fastt serve`: a
// long-running process that answers "place this graph on this cluster under
// these costs" requests from a sharded in-memory artifact cache, coalescing
// concurrent identical requests onto one OS-DPOS search. Baechi's argument
// (PAPERS.md) is that device placement is operationally useful only when it
// is fast and repeatable at serving time; PR 3 made strategies cacheable
// deployment units with exact provenance keys, and this package amortizes
// the (already ~30ms) cold search across every client that asks the same
// question.
//
// The cache key is the PR 3 provenance triple — base-graph fingerprint ×
// cluster shape × cost-model hash (strategy.CacheKey). Scheduling options
// are deliberately not part of the key: the service computes every strategy
// under one fixed option set chosen at startup, so equal keys imply equal
// artifacts. (An explicit client seed is the one documented exception — see
// Request.Seed.) The service never picks a seed itself; DESIGN.md §9 gives
// the measurement behind that. See DESIGN.md "Strategy service".
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"fastt/internal/core"
	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/strategy"
	"fastt/internal/validate"
)

// Service errors mapped to HTTP statuses by the handler.
var (
	// ErrQueueFull reports that the bounded admission queue is at capacity;
	// clients should back off and retry (HTTP 429).
	ErrQueueFull = errors.New("serve: search queue full")
	// ErrNotCached reports a fingerprint-only request whose artifact is
	// neither cached nor being computed; the client must resend with the
	// full graph (HTTP 404).
	ErrNotCached = errors.New("serve: artifact not cached and no graph provided")
)

// BadRequestError reports a malformed or unsatisfiable request (HTTP 400).
type BadRequestError struct{ Msg string }

func (e *BadRequestError) Error() string { return "serve: bad request: " + e.Msg }

func badRequest(format string, args ...any) error {
	return &BadRequestError{Msg: fmt.Sprintf(format, args...)}
}

// maxClusterDevices caps the devices of a cluster the service builds from a
// shape alone. device.NewCluster allocates a link table quadratic in the
// device count, so an unbounded shape lets an 80-byte request allocate
// hundreds of MiB. 1024 devices is 128× the largest cluster any test,
// example or benchmark uses; its link table takes 16 MiB.
const maxClusterDevices = 1024

// checkShapeSize rejects a regular shape of more than maxClusterDevices
// devices. It divides instead of multiplying, so no shape can overflow
// the check.
func checkShapeSize(shape strategy.ClusterShape) error {
	if shape.Servers > maxClusterDevices || shape.GPUsPerServer > maxClusterDevices/max(shape.Servers, 1) {
		return badRequest("cluster shape %d×%d exceeds the %d-device cap",
			shape.Servers, shape.GPUsPerServer, maxClusterDevices)
	}
	return nil
}

// Config tunes the service. The zero value is usable: every field has a
// production default.
type Config struct {
	// CacheBytes is the total artifact-cache budget across shards.
	// Default 256 MiB.
	CacheBytes int64
	// Shards is the cache shard count. Default 16.
	Shards int
	// Sched is the scheduling option set every search runs under; zero
	// MaxSplitOps/MaxSyncGroups default to the CLI's production values (8
	// each). Sched.Workers sizes one search's candidate fan-out and feeds the
	// MaxSearches default.
	Sched core.Options
	// MaxSearches bounds concurrently running searches. Default
	// max(1, GOMAXPROCS / Sched.WorkerCount()): enough searches to fill
	// the machine without oversubscribing each search's own fan-out. (A
	// zero Sched.Workers means GOMAXPROCS workers per search, so the
	// default is then one search.)
	MaxSearches int
	// MaxQueue bounds searches waiting for an admission slot; beyond it,
	// requests fail fast with ErrQueueFull. Default 64.
	MaxQueue int
	// SearchTimeout caps one search's wall time (a request may additionally
	// carry its own, tighter deadline). Default 60s; negative disables.
	SearchTimeout time.Duration
	// Strategist computes strategies; nil means core.ComputeStrategyCtx.
	// Tests substitute stubs to make coalescing and admission observable.
	Strategist core.Strategist
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.CacheBytes <= 0 {
		out.CacheBytes = 256 << 20
	}
	if out.Shards <= 0 {
		out.Shards = 16
	}
	if out.Sched.MaxSplitOps == 0 {
		out.Sched.MaxSplitOps = 8
	}
	if out.Sched.MaxSyncGroups == 0 {
		out.Sched.MaxSyncGroups = 8
	}
	if out.MaxSearches <= 0 {
		out.MaxSearches = max(1, runtime.GOMAXPROCS(0)/out.Sched.WorkerCount())
	}
	if out.MaxQueue <= 0 {
		out.MaxQueue = 64
	}
	if out.SearchTimeout == 0 {
		out.SearchTimeout = 60 * time.Second
	}
	if out.Strategist == nil {
		out.Strategist = core.ComputeStrategyCtx
	}
	return out
}

// Service answers strategy requests from the cache, coalescing concurrent
// identical misses onto one search and bounding search concurrency.
type Service struct {
	cfg      Config
	cache    *cache
	metrics  metrics
	flights  *flightGroup
	sem      chan struct{} // admission slots for running searches
	maxQueue int
}

// New builds a service from cfg (zero value = defaults).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.MaxSearches),
		maxQueue: cfg.MaxQueue,
	}
	s.cache = newCache(cfg.CacheBytes, cfg.Shards, &s.metrics)
	s.flights = newFlightGroup()
	return s
}

// Request is one strategy question. The in-process form (the session, the
// tests) fills Graph/Cluster/Est directly; the HTTP handler builds it from
// the wire encoding. Fingerprint, Shape and CostHash may be provided
// explicitly — a fingerprint-carrying request whose artifact is cached is
// answered without touching the graph at all, the warm fast path
// BenchmarkServeWarmHit measures.
type Request struct {
	// Model optionally names the catalog model, for provenance only.
	Model string
	// Graph is the base computation graph. May be nil on fingerprint-only
	// requests (answerable from cache or a running flight).
	Graph *graph.Graph
	// Fingerprint identifies the base graph; computed from Graph when
	// empty.
	Fingerprint string
	// Cluster is the target cluster. When nil it is built from Shape,
	// which must then be a regular Servers × GPUsPerServer shape.
	Cluster *device.Cluster
	// Shape is the cluster shape; derived from Cluster when zero.
	Shape strategy.ClusterShape
	// Est is the cost estimator; nil means the default kernel oracle for
	// the cluster.
	Est cost.Estimator
	// CostHash fingerprints the learned cost model; derived from Est when
	// empty and Est serializes itself (the stateless oracle hashes to "").
	CostHash string
	// Seed optionally warm-starts a cache-miss search from a prior artifact
	// for the same base graph (core.Options.Seed): the search prunes against
	// the seed's re-evaluated makespan and falls back to it when nothing
	// beats it. A seed whose fingerprint does not match the request's graph
	// is rejected up front as a bad request. When nil, the search runs cold
	// (the service does not look for a seed of its own), so the cache key
	// alone determines the artifact.
	//
	// A seed does not enter the cache key: in the rare case where it wins
	// outright, the cached artifact can differ from what a cold search would
	// have produced (it is never worse by predicted makespan for that
	// search's estimator). This is the one exception to key → artifact
	// determinism.
	Seed *strategy.Artifact
}

// Source says how a result was obtained.
type Source string

const (
	// SourceHit: answered from the cache.
	SourceHit Source = "hit"
	// SourceComputed: this request led the search.
	SourceComputed Source = "miss"
	// SourceCoalesced: this request joined another request's search.
	SourceCoalesced Source = "coalesced"
)

// Seed annotations on a Result: how the search that produced it used a
// warm-start seed, if at all. Empty means a cache hit or a cold search.
const (
	// SeedUsed: the search was warm-started and a candidate beat the seed.
	SeedUsed = "seeded"
	// SeedWon: nothing beat the seed; the response IS the re-materialized
	// seed strategy.
	SeedWon = "won"
)

// Result is a strategy answer: the artifact's compact JSON (shared,
// read-only — byte-identical across hit, computed, and coalesced responses
// for one key) plus how it was obtained.
type Result struct {
	Key          strategy.CacheKey
	ArtifactJSON []byte
	Source       Source
	// Seed is "" (cold or cache hit), SeedUsed, or SeedWon.
	Seed string
}

// Artifact decodes the result's artifact.
func (r *Result) Artifact() (*strategy.Artifact, error) {
	var a strategy.Artifact
	if err := json.Unmarshal(r.ArtifactJSON, &a); err != nil {
		return nil, err
	}
	return &a, nil
}

// resolveKey derives the request's cache key without building anything
// expensive: fingerprint from the graph only when not given, shape from the
// cluster only when not given, cost hash from the estimator only when it is
// a self-serializing learned model.
func resolveKey(req *Request) (strategy.CacheKey, error) {
	key := strategy.CacheKey{Fingerprint: req.Fingerprint, Cluster: req.Shape, CostHash: req.CostHash}
	if key.Fingerprint == "" {
		if req.Graph == nil {
			return key, badRequest("neither graph nor graphFingerprint given")
		}
		key.Fingerprint = strategy.Fingerprint(req.Graph)
	}
	if key.Cluster == (strategy.ClusterShape{}) {
		if req.Cluster == nil {
			return key, badRequest("neither cluster nor cluster shape given")
		}
		key.Cluster = strategy.ClusterShapeOf(req.Cluster)
	}
	if key.Cluster.NumDevices() < 1 {
		return key, badRequest("cluster shape %+v has no devices", key.Cluster)
	}
	if key.CostHash == "" && req.Est != nil {
		key.CostHash = CostHashOf(req.Est)
	}
	return key, nil
}

// CostHashOf fingerprints an estimator for the cache key: a learned model
// that can serialize itself (cost.Model) hashes its snapshot; a stateless
// oracle hashes to "" — its predictions are a pure function of the cluster
// shape already in the key.
func CostHashOf(est cost.Estimator) string {
	w, ok := est.(interface{ WriteJSON(io.Writer) error })
	if !ok {
		return ""
	}
	h, err := strategy.HashJSON(w.WriteJSON)
	if err != nil {
		return ""
	}
	return h
}

// Compute answers one request: cache hit, joining a running flight, or
// leading a new search, in that order. ctx cancels only this caller's wait;
// a led search keeps running for other waiters until the last one abandons
// it (see flightGroup).
func (s *Service) Compute(ctx context.Context, req *Request) (*Result, error) {
	key, err := resolveKey(req)
	if err != nil {
		return nil, err
	}
	if req.Seed != nil && req.Seed.Fingerprint != key.Fingerprint {
		// Checked before the cache probe: a request carrying a seed for a
		// different model is malformed whether or not the answer is cached.
		return nil, badRequest("seed strategy is for graph %s, request is for %s",
			req.Seed.Fingerprint, key.Fingerprint)
	}
	if b := s.cache.get(key); b != nil {
		s.metrics.hits.Add(1)
		return &Result{Key: key, ArtifactJSON: b, Source: SourceHit}, nil
	}
	f, leader, cached := s.flights.join(key, s.cache)
	if cached != nil {
		// The flight that was covering this key committed between our cache
		// probe and the flight lookup; the locked re-probe caught it.
		s.metrics.hits.Add(1)
		return &Result{Key: key, ArtifactJSON: cached, Source: SourceHit}, nil
	}
	s.metrics.misses.Add(1)
	if leader {
		go s.lead(f, key, req)
	} else {
		s.metrics.coalesced.Add(1)
	}
	select {
	case <-f.done:
		if f.err != nil {
			return nil, f.err
		}
		src := SourceCoalesced
		if leader {
			src = SourceComputed
		}
		return &Result{Key: key, ArtifactJSON: f.bytes, Source: src, Seed: f.seed}, nil
	case <-ctx.Done():
		s.flights.abandon(f)
		return nil, ctx.Err()
	}
}

// lead runs one search on behalf of every waiter of f: admission control,
// the strategist, validation, provenance stamping, and the cache commit.
// Commit ordering is the coalescing correctness invariant — put the bytes
// in the cache BEFORE retiring the flight, so no request can miss the cache
// and then find no flight covering the key.
func (s *Service) lead(f *flight, key strategy.CacheKey, req *Request) {
	f.bytes, f.seed, f.err = s.search(f.ctx, key, req)
	if f.err == nil {
		s.cache.put(key, f.bytes, int64(len(f.bytes)))
	}
	s.flights.retire(key, f)
}

// search runs the admission-controlled strategy computation and returns the
// artifact's compact JSON plus the seed annotation ("", SeedUsed or SeedWon).
func (s *Service) search(ctx context.Context, key strategy.CacheKey, req *Request) ([]byte, string, error) {
	if req.Graph == nil {
		// Fingerprint-only miss with no running flight to join: the service
		// has no graph to search over. Checked before admission so the
		// rejection consumes no queue slot.
		return nil, "", ErrNotCached
	}
	if depth := s.metrics.queueDepth.Add(1); depth > int64(s.maxQueue) {
		s.metrics.queueDepth.Add(-1)
		s.metrics.rejected.Add(1)
		return nil, "", ErrQueueFull
	}
	select {
	case s.sem <- struct{}{}:
		s.metrics.queueDepth.Add(-1)
	case <-ctx.Done():
		s.metrics.queueDepth.Add(-1)
		return nil, "", ctx.Err()
	}
	defer func() { <-s.sem }()

	if s.cfg.SearchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SearchTimeout)
		defer cancel()
	}

	cluster := req.Cluster
	if cluster == nil {
		shape := key.Cluster
		if shape.Devices > 0 || shape.Classes != "" {
			// Count-only regular shapes are the only ones the service can
			// materialize itself; irregular or classed mixes carry topology
			// the shape encoding alone cannot reconstruct.
			return nil, "", badRequest("irregular or classed cluster shape %+v needs an explicit cluster", shape)
		}
		if err := checkShapeSize(shape); err != nil {
			return nil, "", err
		}
		var err error
		if cluster, err = device.NewCluster(shape.Servers, shape.GPUsPerServer); err != nil {
			return nil, "", badRequest("cluster shape %+v: %v", shape, err)
		}
	}
	est := req.Est
	if est == nil {
		est = kernels.NewDefaultOracle(cluster)
	}

	// Only an explicit client seed warm-starts the search (its fingerprint
	// was checked in Compute); without one the search runs cold.
	opts := s.cfg.Sched
	opts.Seed = req.Seed

	s.metrics.searches.Add(1)
	start := time.Now()
	st, err := s.cfg.Strategist(ctx, req.Graph, cluster, est, opts)
	if err != nil {
		s.metrics.searchErrors.Add(1)
		return nil, "", err
	}
	s.metrics.observeSearch(time.Since(start))
	seed := ""
	if st.Seeded {
		s.metrics.seeded.Add(1)
		seed = SeedUsed
		if st.SeedWon {
			s.metrics.seedWon.Add(1)
			seed = SeedWon
		}
	}
	if err := validate.Strategy(st, cluster, validate.Options{SkipMemory: true}); err != nil {
		s.metrics.searchErrors.Add(1)
		return nil, "", fmt.Errorf("serve: computed strategy invalid: %w", err)
	}
	art := st.Artifact
	art.Provenance = strategy.Provenance{
		Model:    req.Model,
		Origin:   "fastt-serve",
		Cluster:  key.Cluster,
		CostHash: key.CostHash,
	}
	b, err := json.Marshal(&art)
	return b, seed, err
}

// Strategist adapts the service to the core.Strategist seam, making a
// session (or any in-process caller) one more client of the cached service
// path: its answers come from the same cache, coalesce with HTTP requests
// for the same key, and carry service provenance. The caller's warm-start
// seed (a session recomputing after a resize passes its pre-resize artifact)
// rides along; other scheduling options stay the service's own, since they
// are fixed per deployment and excluded from the cache key.
func (s *Service) Strategist() core.Strategist {
	return func(ctx context.Context, g *graph.Graph, cluster *device.Cluster,
		est cost.Estimator, opts core.Options) (*core.Strategy, error) {
		res, err := s.Compute(ctx, &Request{Graph: g, Cluster: cluster, Est: est, Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		art, err := res.Artifact()
		if err != nil {
			return nil, fmt.Errorf("serve: decode cached artifact: %w", err)
		}
		mg, err := art.Materialize(g)
		if err != nil {
			return nil, fmt.Errorf("serve: materialize cached artifact: %w", err)
		}
		return &core.Strategy{
			Artifact:   *art,
			Graph:      mg,
			Priorities: art.PriorityIndex(),
		}, nil
	}
}
