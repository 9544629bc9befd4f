package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"fastt/internal/core"
	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
	"fastt/internal/strategy"
)

// seedRecordingStrategist is a stub that records the Options.Seed of every
// call and reports the warm start back the way a real search would.
type seedRecordingStrategist struct {
	mu    sync.Mutex
	seeds []*strategy.Artifact
	// won makes each seeded call report that nothing beat the seed.
	won bool
}

func (r *seedRecordingStrategist) strategist() core.Strategist {
	return func(ctx context.Context, g *graph.Graph, cluster *device.Cluster,
		est cost.Estimator, opts core.Options) (*core.Strategy, error) {
		r.mu.Lock()
		r.seeds = append(r.seeds, opts.Seed)
		r.mu.Unlock()
		st := &core.Strategy{
			Artifact: strategy.Artifact{
				SchemaVersion: strategy.SchemaVersion,
				Fingerprint:   strategy.Fingerprint(g),
				Placement:     make([]int, g.NumOps()),
			},
			Graph: g,
		}
		if opts.Seed != nil {
			st.Seeded = true
			st.SeedWon = r.won
		}
		return st, nil
	}
}

func (r *seedRecordingStrategist) seedOf(t *testing.T, call int) *strategy.Artifact {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if call >= len(r.seeds) {
		t.Fatalf("strategist saw %d calls, want at least %d", len(r.seeds), call+1)
	}
	return r.seeds[call]
}

// TestSeedFingerprintMismatchRejected is the satellite validation gate: a
// seed artifact for a different base graph must be rejected up front — a
// confused client can never materialize a split list against the wrong
// graph.
func TestSeedFingerprintMismatchRejected(t *testing.T) {
	svc := New(Config{Strategist: stubStrategist(nil)})
	g := tinyGraph(t)
	bad := &strategy.Artifact{
		SchemaVersion: strategy.SchemaVersion,
		Fingerprint:   "not-this-graph",
	}
	_, err := svc.Compute(context.Background(), &Request{
		Graph:   g,
		Cluster: testCluster(t, 2),
		Seed:    bad,
	})
	var br *BadRequestError
	if !errors.As(err, &br) {
		t.Fatalf("mismatched seed: err = %v, want BadRequestError", err)
	}

	// Same gate over HTTP: 400, not a search.
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	seedJSON, _ := json.Marshal(bad)
	resp, body := postCompute(t, srv.URL,
		`{"cluster":{"servers":1,"gpusPerServer":2},"graph":`+graphJSON(t, g)+
			`,"seed":`+string(seedJSON)+`}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP mismatched seed: status = %d, body %s", resp.StatusCode, body)
	}
}

// TestSeedExplicitThreadedToSearch checks that a client-supplied seed for
// the right graph reaches the strategist, is annotated on the response
// (X-Fastt-Seed), and is counted in /v1/stats.
func TestSeedExplicitThreadedToSearch(t *testing.T) {
	rec := &seedRecordingStrategist{won: true}
	svc := New(Config{Strategist: rec.strategist()})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	g := tinyGraph(t)
	seed := &strategy.Artifact{
		SchemaVersion: strategy.SchemaVersion,
		Fingerprint:   strategy.Fingerprint(g),
		Placement:     make([]int, g.NumOps()),
	}
	seedJSON, _ := json.Marshal(seed)
	resp, body := postCompute(t, srv.URL,
		`{"cluster":{"servers":1,"gpusPerServer":2},"graph":`+graphJSON(t, g)+
			`,"seed":`+string(seedJSON)+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seeded compute: status = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(SeedHeader); got != SeedWon {
		t.Errorf("%s = %q, want %q", SeedHeader, got, SeedWon)
	}
	if got := rec.seedOf(t, 0); got == nil || got.Fingerprint != seed.Fingerprint {
		t.Errorf("strategist saw seed %+v, want the client's", got)
	}

	st := svc.Stats()
	if st.Seeded != 1 || st.SeedWon != 1 {
		t.Errorf("stats seeded/seedWon = %d/%d, want 1/1", st.Seeded, st.SeedWon)
	}

	// A cache hit for the same key reports no seed annotation.
	resp, _ = postCompute(t, srv.URL,
		`{"cluster":{"servers":1,"gpusPerServer":2},"graphFingerprint":"`+seed.Fingerprint+`"}`)
	if got := resp.Header.Get(SeedHeader); got != "" {
		t.Errorf("cache hit %s = %q, want absent", SeedHeader, got)
	}
}

// TestSeedlessMissIsKeyDetermined pins key → artifact determinism: a miss
// without a client seed runs cold even when the cache holds an answer for
// the same graph on another cluster, so its artifact is exactly what a
// direct core computation for the key produces.
func TestSeedlessMissIsKeyDetermined(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	spec, err := models.ByName("LeNet")
	if err != nil {
		t.Fatal(err)
	}
	m, err := spec.Build(spec.GlobalBatch / 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildDataParallel(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	request := func(gpus int) string {
		return fmt.Sprintf(`{"model":"LeNet","cluster":{"servers":1,"gpusPerServer":%d},"graph":%s}`,
			gpus, graphJSON(t, g))
	}

	// Cache a 2-GPU answer for the graph.
	if resp, body := postCompute(t, srv.URL, request(2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("2-GPU compute: status = %d, body %s", resp.StatusCode, body)
	}

	// The same graph at 3 GPUs, no seed: a cold search.
	resp, body := postCompute(t, srv.URL, request(3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("3-GPU compute: status = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(SeedHeader); got != "" {
		t.Errorf("seedless miss %s = %q, want absent", SeedHeader, got)
	}
	var env computeResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}

	shape := strategy.ClusterShape{Servers: 1, GPUsPerServer: 3}
	cluster, err := device.NewCluster(shape.Servers, shape.GPUsPerServer)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.ComputeStrategy(g, cluster, kernels.NewDefaultOracle(cluster), svc.cfg.Sched)
	if err != nil {
		t.Fatalf("direct: %v", err)
	}
	art := st.Artifact
	art.Provenance = strategy.Provenance{Model: "LeNet", Origin: "fastt-serve", Cluster: shape}
	direct, err := json.Marshal(&art)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env.Artifact, direct) {
		t.Error("seedless miss artifact differs from a direct core computation for its key")
	}
	if st := svc.Stats(); st.Seeded != 0 {
		t.Errorf("stats seeded = %d, want 0", st.Seeded)
	}
}
