package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"fastt/internal/core"
	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
	"fastt/internal/strategy"
)

// tinyGraph is a minimal valid DAG for tests that never run a real search.
func tinyGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	in := g.MustAddOp(&graph.Op{Name: "in", Kind: graph.KindInput, FLOPs: 100, OutputBytes: 8})
	mid := g.MustAddOp(&graph.Op{Name: "mid", Kind: graph.KindRelu, FLOPs: 100, OutputBytes: 8})
	out := g.MustAddOp(&graph.Op{Name: "out", Kind: graph.KindLoss, FLOPs: 100, OutputBytes: 4})
	g.MustConnect(in, mid, 8)
	g.MustConnect(mid, out, 4)
	return g
}

// stubStrategist returns a trivially valid strategy, optionally blocking on
// gate first (close the gate to release every pending call).
func stubStrategist(gate <-chan struct{}) core.Strategist {
	return func(ctx context.Context, g *graph.Graph, cluster *device.Cluster,
		est cost.Estimator, opts core.Options) (*core.Strategy, error) {
		if gate != nil {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &core.Strategy{
			Artifact: strategy.Artifact{
				SchemaVersion: strategy.SchemaVersion,
				Fingerprint:   strategy.Fingerprint(g),
				Placement:     make([]int, g.NumOps()),
			},
			Graph: g,
		}, nil
	}
}

func testCluster(t *testing.T, gpus int) *device.Cluster {
	t.Helper()
	c, err := device.SingleServer(gpus)
	if err != nil {
		t.Fatalf("SingleServer: %v", err)
	}
	return c
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestThunderingHerdCoalesces is the ISSUE 7 acceptance check: 64
// concurrent identical cold requests perform exactly one search, counted by
// the stats, and every request receives the identical bytes.
func TestThunderingHerdCoalesces(t *testing.T) {
	const herd = 64
	gate := make(chan struct{})
	svc := New(Config{Strategist: stubStrategist(gate), MaxQueue: herd + 1})
	g := tinyGraph(t)
	cluster := testCluster(t, 2)

	results := make([][]byte, herd)
	errs := make([]error, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := svc.Compute(context.Background(), &Request{Graph: g, Cluster: cluster})
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = res.ArtifactJSON
		}(i)
	}
	// All 64 must register as misses on the one blocked flight before it is
	// released — proving they coalesced rather than racing past each other.
	waitFor(t, "herd to assemble", func() bool { return svc.Stats().Cache.Misses == herd })
	if got := svc.Stats().Searches; got != 1 {
		t.Fatalf("searches while herd blocked = %d, want exactly 1", got)
	}
	close(gate)
	wg.Wait()

	for i := 0; i < herd; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("request %d got different bytes than request 0", i)
		}
	}
	st := svc.Stats()
	if st.Searches != 1 {
		t.Errorf("searches = %d, want 1", st.Searches)
	}
	if st.Coalesced != herd-1 {
		t.Errorf("coalesced = %d, want %d", st.Coalesced, herd-1)
	}
	if st.Cache.Misses != herd {
		t.Errorf("misses = %d, want %d", st.Cache.Misses, herd)
	}

	// The herd's artifact is committed: one more request is a pure hit.
	res, err := svc.Compute(context.Background(), &Request{Graph: g, Cluster: cluster})
	if err != nil {
		t.Fatalf("warm request: %v", err)
	}
	if res.Source != SourceHit {
		t.Errorf("warm source = %q, want %q", res.Source, SourceHit)
	}
	if !bytes.Equal(res.ArtifactJSON, results[0]) {
		t.Error("warm bytes differ from the herd's")
	}
}

func TestDistinctKeysDoNotCoalesce(t *testing.T) {
	svc := New(Config{Strategist: stubStrategist(nil), MaxSearches: 4, MaxQueue: 64})
	cluster := testCluster(t, 2)
	g1, g2 := tinyGraph(t), func() *graph.Graph {
		g := graph.New()
		a := g.MustAddOp(&graph.Op{Name: "a", Kind: graph.KindInput, FLOPs: 7, OutputBytes: 8})
		b := g.MustAddOp(&graph.Op{Name: "b", Kind: graph.KindLoss, FLOPs: 7, OutputBytes: 4})
		g.MustConnect(a, b, 8)
		return g
	}()
	r1, err := svc.Compute(context.Background(), &Request{Graph: g1, Cluster: cluster})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := svc.Compute(context.Background(), &Request{Graph: g2, Cluster: cluster})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Key == r2.Key {
		t.Fatal("distinct graphs produced the same cache key")
	}
	if got := svc.Stats().Searches; got != 2 {
		t.Errorf("searches = %d, want 2", got)
	}
	// Same graph, different cluster shape: a third key, a third search.
	if _, err := svc.Compute(context.Background(), &Request{Graph: g1, Cluster: testCluster(t, 4)}); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().Searches; got != 3 {
		t.Errorf("searches = %d, want 3", got)
	}
}

// TestMaxSearchesDefault pins the admission default to the worker count a
// search really runs (core.Options.WorkerCount): Sched.Workers = 0 means
// GOMAXPROCS workers per search, so a zero-value Config admits one search
// at a time, not GOMAXPROCS searches of GOMAXPROCS goroutines each.
// GOMAXPROCS is raised to 4 for the test so the cases differ on any host.
func TestMaxSearchesDefault(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, want int }{
		{0, max(1, procs/procs)},
		{1, procs},
		{2, procs / 2},
		{8, 1},
	} {
		got := New(Config{Sched: core.Options{Workers: tc.workers}}).Stats().MaxSearches
		if got != tc.want {
			t.Errorf("Sched.Workers=%d: MaxSearches = %d, want %d", tc.workers, got, tc.want)
		}
	}
}

func TestQueueOverflowRejects(t *testing.T) {
	gate := make(chan struct{})
	svc := New(Config{Strategist: stubStrategist(gate), MaxSearches: 1, MaxQueue: 1})
	cluster := testCluster(t, 2)
	gs := make([]*graph.Graph, 3)
	for i := range gs {
		g := graph.New()
		a := g.MustAddOp(&graph.Op{Name: fmt.Sprintf("a%d", i), Kind: graph.KindInput, FLOPs: int64(i + 1), OutputBytes: 8})
		b := g.MustAddOp(&graph.Op{Name: fmt.Sprintf("b%d", i), Kind: graph.KindLoss, FLOPs: 1, OutputBytes: 4})
		g.MustConnect(a, b, 8)
		gs[i] = g
	}

	errCh := make(chan error, 2)
	// First search occupies the only slot; second queues (depth 1 = limit).
	go func() {
		_, err := svc.Compute(context.Background(), &Request{Graph: gs[0], Cluster: cluster})
		errCh <- err
	}()
	waitFor(t, "first search to start", func() bool { return svc.Stats().Searches == 1 })
	go func() {
		_, err := svc.Compute(context.Background(), &Request{Graph: gs[1], Cluster: cluster})
		errCh <- err
	}()
	waitFor(t, "second search to queue", func() bool { return svc.Stats().QueueDepth == 1 })

	// Third request overflows the queue and must fail fast.
	_, err := svc.Compute(context.Background(), &Request{Graph: gs[2], Cluster: cluster})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow err = %v, want ErrQueueFull", err)
	}
	if got := svc.Stats().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-errCh; err != nil {
			t.Errorf("queued request failed: %v", err)
		}
	}
}

func TestSearchTimeout(t *testing.T) {
	svc := New(Config{Strategist: stubStrategist(make(chan struct{})), SearchTimeout: 20 * time.Millisecond})
	_, err := svc.Compute(context.Background(), &Request{Graph: tinyGraph(t), Cluster: testCluster(t, 2)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := svc.Stats().SearchErrors; got != 1 {
		t.Errorf("searchErrors = %d, want 1", got)
	}
}

// TestAbandonedFlightCancelsSearch: when every waiter gives up, the flight
// context is cancelled and the search stops; a search with waiters left
// survives one waiter leaving.
func TestAbandonedFlightCancelsSearch(t *testing.T) {
	sawCancel := make(chan struct{})
	strategist := func(ctx context.Context, g *graph.Graph, cluster *device.Cluster,
		est cost.Estimator, opts core.Options) (*core.Strategy, error) {
		<-ctx.Done()
		close(sawCancel)
		return nil, ctx.Err()
	}
	svc := New(Config{Strategist: strategist})
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := svc.Compute(ctx, &Request{Graph: tinyGraph(t), Cluster: testCluster(t, 2)})
		errCh <- err
	}()
	waitFor(t, "search to start", func() bool { return svc.Stats().Searches == 1 })
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	select {
	case <-sawCancel:
	case <-time.After(5 * time.Second):
		t.Fatal("search context never cancelled after the last waiter left")
	}
}

func TestFingerprintOnlyRequests(t *testing.T) {
	svc := New(Config{Strategist: stubStrategist(nil)})
	g := tinyGraph(t)
	cluster := testCluster(t, 2)
	shape := strategy.ClusterShapeOf(cluster)
	fp := strategy.Fingerprint(g)

	// Cold fingerprint-only: nothing cached, nothing to search over.
	_, err := svc.Compute(context.Background(), &Request{Fingerprint: fp, Shape: shape})
	if !errors.Is(err, ErrNotCached) {
		t.Fatalf("cold fingerprint-only err = %v, want ErrNotCached", err)
	}

	if _, err := svc.Compute(context.Background(), &Request{Graph: g, Cluster: cluster}); err != nil {
		t.Fatalf("populate: %v", err)
	}
	res, err := svc.Compute(context.Background(), &Request{Fingerprint: fp, Shape: shape})
	if err != nil {
		t.Fatalf("warm fingerprint-only: %v", err)
	}
	if res.Source != SourceHit {
		t.Errorf("source = %q, want hit", res.Source)
	}
}

// TestCatalogByteEquality runs the real strategist: for catalog models, the
// cold service answer, the warm cached answer, and a direct core
// computation must be byte-identical artifacts.
func TestCatalogByteEquality(t *testing.T) {
	names := []string{"MLP", "LeNet", "VGG-19"}
	if testing.Short() {
		names = names[:1]
	}
	svc := New(Config{})
	const gpus = 2
	cluster := testCluster(t, gpus)
	shape := strategy.ClusterShapeOf(cluster)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			spec, err := models.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := spec.Build(spec.GlobalBatch / gpus)
			if err != nil {
				t.Fatal(err)
			}
			g, err := graph.BuildDataParallel(m, gpus)
			if err != nil {
				t.Fatal(err)
			}

			cold, err := svc.Compute(context.Background(), &Request{Model: name, Graph: g, Cluster: cluster})
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			if cold.Source != SourceComputed {
				t.Errorf("cold source = %q, want miss", cold.Source)
			}
			warm, err := svc.Compute(context.Background(), &Request{Model: name, Graph: g, Cluster: cluster})
			if err != nil {
				t.Fatalf("warm: %v", err)
			}
			if warm.Source != SourceHit {
				t.Errorf("warm source = %q, want hit", warm.Source)
			}
			if !bytes.Equal(cold.ArtifactJSON, warm.ArtifactJSON) {
				t.Fatal("warm artifact differs from cold")
			}

			// Reproduce the service's computation directly through core
			// under the same fixed options and provenance stamp.
			st, err := core.ComputeStrategyCtx(context.Background(), g, cluster, kernels.NewDefaultOracle(cluster), svc.cfg.Sched)
			if err != nil {
				t.Fatalf("direct: %v", err)
			}
			art := st.Artifact
			art.Provenance = strategy.Provenance{Model: name, Origin: "fastt-serve", Cluster: shape}
			direct, err := json.Marshal(&art)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cold.ArtifactJSON, direct) {
				t.Fatal("service artifact differs from a direct core computation")
			}

			// The cached artifact round-trips and validates against the
			// graph it was computed for.
			a, err := warm.Artifact()
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Validate(g, cluster); err != nil {
				t.Fatalf("cached artifact invalid: %v", err)
			}
		})
	}
}

func TestServiceStrategistSeam(t *testing.T) {
	svc := New(Config{})
	g := tinyGraph(t)
	cluster := testCluster(t, 2)
	strategist := svc.Strategist()
	st1, err := strategist(context.Background(), g, cluster, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := strategist(context.Background(), g, cluster, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Stats().Searches != 1 {
		t.Errorf("searches = %d, want 1 (second call served from cache)", svc.Stats().Searches)
	}
	if st1.Graph.NumOps() != st2.Graph.NumOps() || len(st1.Placement) != len(st2.Placement) {
		t.Error("strategist seam returned inconsistent strategies")
	}
	for i := range st1.Placement {
		if st1.Placement[i] != st2.Placement[i] {
			t.Fatalf("placement diverges at op %d", i)
		}
	}
}

func TestBadRequests(t *testing.T) {
	svc := New(Config{Strategist: stubStrategist(nil)})
	var br *BadRequestError
	if _, err := svc.Compute(context.Background(), &Request{}); !errors.As(err, &br) {
		t.Errorf("empty request err = %v, want BadRequestError", err)
	}
	if _, err := svc.Compute(context.Background(), &Request{Graph: tinyGraph(t)}); !errors.As(err, &br) {
		t.Errorf("clusterless request err = %v, want BadRequestError", err)
	}
	// A graph miss builds its cluster from the shape; over maxClusterDevices
	// it must not.
	huge := strategy.ClusterShape{Servers: 64, GPUsPerServer: 64}
	if _, err := svc.Compute(context.Background(), &Request{Graph: tinyGraph(t), Shape: huge}); !errors.As(err, &br) {
		t.Errorf("64×64 shape err = %v, want BadRequestError", err)
	}
}
