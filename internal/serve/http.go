package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/jsonread"
	"fastt/internal/strategy"
)

// CacheHeader reports how a /v1/compute response was obtained: "hit",
// "miss" (this request led the search) or "coalesced" (it joined one).
const CacheHeader = "X-Fastt-Cache"

// SeedHeader reports how the search behind a /v1/compute response used the
// client's warm-start seed: "seeded" (the seed bounded the search), "won"
// (nothing beat the seed; the artifact is the re-materialized seed
// strategy). Absent on cold searches and cache hits.
const SeedHeader = "X-Fastt-Seed"

// maxRequestBytes caps a /v1/compute request body. The largest catalog
// graph with a learned cost snapshot is a few MB. A body that declares a
// larger Content-Length is answered 413 unread. One that streams past the
// cap is read up to it, into a buffer that doubles on the way, and answered
// 413 unless its first JSON value (or a syntax error) already lies inside
// the cap, in which case that prefix is handled as the whole body. Either
// way an endless body allocates 2× the cap, 128 MiB (measured).
const maxRequestBytes = 64 << 20

// computeRequest is the wire form of a strategy question, read by
// decodeRequest. Its json tags name the wire fields.
type computeRequest struct {
	// Model optionally names the catalog model (provenance only).
	Model string `json:"model,omitempty"`
	// Graph is the base graph in graph.WriteJSON form. Optional when
	// GraphFingerprint identifies an artifact the service already has.
	Graph json.RawMessage `json:"graph,omitempty"`
	// GraphFingerprint is strategy.Fingerprint of the base graph — the warm
	// fast path: a cached answer skips graph parsing entirely.
	GraphFingerprint string `json:"graphFingerprint,omitempty"`
	// Cluster is the target topology. The HTTP API accepts regular
	// Servers × GPUsPerServer shapes only.
	Cluster strategy.ClusterShape `json:"cluster"`
	// Costs is an optional learned cost-model snapshot (cost.Model JSON).
	// Absent, the service prices ops with its deterministic kernel oracle.
	Costs json.RawMessage `json:"costs,omitempty"`
	// CostHash overrides the cost-model hash in the cache key; computed
	// from Costs when empty. Clients that already hashed their model (the
	// session does) pass it so both sides agree on the key exactly.
	CostHash string `json:"costHash,omitempty"`
	// Seed is an optional strategy artifact (strategy.Artifact JSON) that
	// warm-starts a cache-miss search for the same base graph — typically
	// the artifact a client computed before its cluster changed shape. A
	// seed for a different graph fingerprint is rejected with 400. Absent,
	// a miss runs a cold search.
	Seed json.RawMessage `json:"seed,omitempty"`
	// TimeoutMs optionally caps this request's wall time.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
}

// Handler returns the service's HTTP API:
//
//	POST /v1/compute  strategy question -> artifact answer
//	GET  /v1/stats    counters snapshot (see Stats)
//	GET  /healthz     liveness
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compute", s.handleCompute)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *Service) handleCompute(w http.ResponseWriter, r *http.Request) {
	if r.ContentLength > maxRequestBytes {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body of %d bytes exceeds the %d-byte cap", r.ContentLength, maxRequestBytes))
		return
	}
	body, err := readBody(w, r)
	if err != nil && !jsonread.Settled(body) {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, fmt.Sprintf("read request: %v", err))
		return
	}
	wire, err := decodeRequest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
		return
	}
	req, err := s.buildRequest(&wire)
	if err != nil {
		writeComputeError(w, err)
		return
	}
	ctx := r.Context()
	if wire.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(wire.TimeoutMs)*time.Millisecond)
		defer cancel()
	}
	res, err := s.Compute(ctx, req)
	if err != nil {
		writeComputeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(CacheHeader, string(res.Source))
	if res.Seed != "" {
		w.Header().Set(SeedHeader, res.Seed)
	}
	// The envelope is assembled by hand so the artifact bytes — shared with
	// the cache entry — reach every client verbatim: a warm response is
	// byte-identical to the cold one that populated it.
	w.Write([]byte(`{"cached":`))
	if res.Source == SourceHit {
		w.Write([]byte(`true`))
	} else {
		w.Write([]byte(`false`))
	}
	w.Write([]byte(`,"key":`))
	keyJSON, _ := json.Marshal(res.Key.String())
	w.Write(keyJSON)
	w.Write([]byte(`,"artifact":`))
	w.Write(res.ArtifactJSON)
	w.Write([]byte("}\n"))
}

// readBody reads the request body, at most maxRequestBytes of it, into one
// buffer: sized from Content-Length when the client sent one, else grown by
// doubling. Past the cap it returns the first maxRequestBytes bytes with
// the *http.MaxBytesError.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	size := 512
	if r.ContentLength > 0 {
		size = int(r.ContentLength) + 1 // room to read EOF without growing
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			// The last doubling goes to one byte past the cap: room for
			// MaxBytesReader to tell a body of exactly the cap from a longer
			// one without another doubling.
			n := 2 * cap(buf)
			if n >= maxRequestBytes {
				n = maxRequestBytes + 1
			}
			grown := make([]byte, len(buf), n)
			copy(grown, buf)
			buf = grown
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

var (
	requestFields = []string{"model", "graph", "graphFingerprint", "cluster", "costs", "costHash", "seed", "timeoutMs"}
	shapeFields   = []string{"servers", "gpusPerServer", "devices", "classes"}
)

// decodeRequest reads a computeRequest from the first JSON value in body,
// accepting and decoding exactly what encoding/json's Decoder with unknown
// fields disallowed does (see package jsonread). Graph, Costs and Seed are
// sub-slices of body.
func decodeRequest(body []byte) (computeRequest, error) {
	var wire computeRequest
	r := jsonread.New(body)
	r.Object(func(key []byte) {
		switch jsonread.Field(key, requestFields) {
		case "model":
			r.String(&wire.Model)
		case "graph":
			wire.Graph = r.Raw()
		case "graphFingerprint":
			r.String(&wire.GraphFingerprint)
		case "cluster":
			shape := &wire.Cluster
			r.Object(func(key []byte) {
				switch jsonread.Field(key, shapeFields) {
				case "servers":
					r.Int(&shape.Servers)
				case "gpusPerServer":
					r.Int(&shape.GPUsPerServer)
				case "devices":
					r.Int(&shape.Devices)
				case "classes":
					r.String(&shape.Classes)
				default:
					r.Unknown(key)
				}
			})
		case "costs":
			wire.Costs = r.Raw()
		case "costHash":
			r.String(&wire.CostHash)
		case "seed":
			wire.Seed = r.Raw()
		case "timeoutMs":
			r.Int64(&wire.TimeoutMs)
		default:
			r.Unknown(key)
		}
	})
	return wire, r.Err()
}

// buildRequest converts the wire form into a service request, parsing the
// graph and costs only when present — a fingerprint-carrying warm request
// allocates next to nothing before the cache answers it. Both decoders read
// their sub-slice of the body in place (a *bytes.Buffer hands jsonread its
// bytes uncopied) and keep nothing of it.
func (s *Service) buildRequest(wire *computeRequest) (*Request, error) {
	shape := wire.Cluster
	if shape.Devices > 0 {
		return nil, badRequest("irregular cluster shapes are not accepted over HTTP")
	}
	if shape.Servers < 1 || shape.GPUsPerServer < 1 {
		return nil, badRequest("cluster must give servers >= 1 and gpusPerServer >= 1, got %+v", shape)
	}
	if err := checkShapeSize(shape); err != nil {
		return nil, err
	}
	req := &Request{
		Model:       wire.Model,
		Fingerprint: wire.GraphFingerprint,
		Shape:       shape,
		CostHash:    wire.CostHash,
	}
	if len(wire.Graph) > 0 {
		g, err := graph.ReadJSON(bytes.NewBuffer(wire.Graph))
		if err != nil {
			return nil, badRequest("parse graph: %v", err)
		}
		if g.HasCycles() {
			return nil, badRequest("graph has cycles; unroll it first")
		}
		req.Graph = g
	}
	if present(wire.Seed) {
		var prior strategy.Artifact
		if err := json.Unmarshal(wire.Seed, &prior); err != nil {
			return nil, badRequest("parse seed strategy: %v", err)
		}
		req.Seed = &prior
	}
	if present(wire.Costs) {
		cluster, err := device.NewCluster(shape.Servers, shape.GPUsPerServer)
		if err != nil {
			return nil, badRequest("cluster shape %+v: %v", shape, err)
		}
		model := cost.NewModel(cluster)
		if err := model.ReadJSON(bytes.NewBuffer(wire.Costs)); err != nil {
			return nil, badRequest("parse costs: %v", err)
		}
		req.Cluster = cluster
		req.Est = model
	}
	return req, nil
}

// present reports whether a raw field holds a value: absent and null both
// read as no value. (A null graph stays an empty graph, which the API has
// always answered.)
func present(raw []byte) bool {
	return len(raw) > 0 && string(raw) != "null"
}

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}

// writeComputeError maps service errors onto HTTP statuses: malformed
// requests 400, unknown fingerprints 404, a full admission queue 429, an
// abandoned or timed-out search 504, anything else 500. (A body over
// maxRequestBytes is answered 413 by handleCompute.)
func writeComputeError(w http.ResponseWriter, err error) {
	var br *BadRequestError
	switch {
	case errors.As(err, &br):
		httpError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, ErrNotCached):
		httpError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ErrQueueFull):
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		httpError(w, http.StatusGatewayTimeout, err.Error())
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(map[string]string{"error": msg})
	w.Write(body)
	w.Write([]byte("\n"))
}
