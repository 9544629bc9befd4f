package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fastt/internal/cost"
	"fastt/internal/graph"
	"fastt/internal/strategy"
)

// computeResponse mirrors the hand-built envelope for decoding in tests.
type computeResponse struct {
	Cached   bool            `json:"cached"`
	Key      string          `json:"key"`
	Artifact json.RawMessage `json:"artifact"`
}

func postCompute(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/compute", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/compute: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

func graphJSON(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.String()
}

func TestHTTPColdWarmByteIdentical(t *testing.T) {
	svc := New(Config{Strategist: stubStrategist(nil)})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	g := tinyGraph(t)
	body := `{"cluster":{"servers":1,"gpusPerServer":2},"graph":` + graphJSON(t, g) + `}`

	resp, cold := postCompute(t, srv.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status = %d, body %s", resp.StatusCode, cold)
	}
	if got := resp.Header.Get(CacheHeader); got != "miss" {
		t.Errorf("cold %s = %q, want miss", CacheHeader, got)
	}
	var cr computeResponse
	if err := json.Unmarshal(cold, &cr); err != nil {
		t.Fatalf("decode cold response: %v", err)
	}
	if cr.Cached {
		t.Error("cold response claims cached=true")
	}

	resp, warm := postCompute(t, srv.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(CacheHeader); got != "hit" {
		t.Errorf("warm %s = %q, want hit", CacheHeader, got)
	}
	var wr computeResponse
	if err := json.Unmarshal(warm, &wr); err != nil {
		t.Fatalf("decode warm response: %v", err)
	}
	if !wr.Cached {
		t.Error("warm response claims cached=false")
	}
	if !bytes.Equal(cr.Artifact, wr.Artifact) {
		t.Fatal("warm artifact bytes differ from cold")
	}

	// Fingerprint-only warm request takes the fast path to the same bytes.
	fp := strategy.Fingerprint(g)
	resp, fast := postCompute(t, srv.URL,
		`{"cluster":{"servers":1,"gpusPerServer":2},"graphFingerprint":"`+fp+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fingerprint status = %d, body %s", resp.StatusCode, fast)
	}
	var fr computeResponse
	if err := json.Unmarshal(fast, &fr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fr.Artifact, cr.Artifact) {
		t.Fatal("fingerprint-path artifact differs")
	}
}

func TestHTTPStatsAndHealth(t *testing.T) {
	svc := New(Config{Strategist: stubStrategist(nil)})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v (status %v)", err, resp)
	}
	resp.Body.Close()

	body := `{"cluster":{"servers":1,"gpusPerServer":2},"graph":` + graphJSON(t, tinyGraph(t)) + `}`
	postCompute(t, srv.URL, body)
	postCompute(t, srv.URL, body)

	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Searches != 1 {
		t.Errorf("stats = hits %d misses %d searches %d, want 1/1/1",
			st.Cache.Hits, st.Cache.Misses, st.Searches)
	}
	if len(st.LatencyCounts) != len(st.LatencyBoundsNs)+1 {
		t.Errorf("latency histogram shape: %d counts for %d bounds",
			len(st.LatencyCounts), len(st.LatencyBoundsNs))
	}
	var total int64
	for _, c := range st.LatencyCounts {
		total += c
	}
	if total != st.Searches {
		t.Errorf("latency histogram total = %d, want %d", total, st.Searches)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	svc := New(Config{Strategist: stubStrategist(nil)})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	cases := []struct {
		name, body string
		status     int
	}{
		{"malformed json", `{`, http.StatusBadRequest},
		{"unknown field", `{"clutser":{}}`, http.StatusBadRequest},
		{"no cluster", `{"graphFingerprint":"ab"}`, http.StatusBadRequest},
		{"irregular shape", `{"cluster":{"servers":1,"gpusPerServer":1,"devices":3},"graphFingerprint":"ab"}`, http.StatusBadRequest},
		{"uncached fingerprint", `{"cluster":{"servers":1,"gpusPerServer":2},"graphFingerprint":"ffff"}`, http.StatusNotFound},
		{"uncached fingerprint with timeout", `{"cluster":{"servers":1,"gpusPerServer":2},"graphFingerprint":"ffff","timeoutMs":1000}`, http.StatusNotFound},
		{"malformed graph", `{"cluster":{"servers":1,"gpusPerServer":2},"graph":"not a graph"}`, http.StatusBadRequest},
		{"malformed seed", `{"cluster":{"servers":1,"gpusPerServer":2},"graphFingerprint":"ab","seed":"not an artifact"}`, http.StatusBadRequest},
		{"malformed costs", `{"cluster":{"servers":1,"gpusPerServer":2},"graphFingerprint":"ab","costs":"not a model"}`, http.StatusBadRequest},
		// Shapes over maxClusterDevices: 64×64 would build a 256 MiB link
		// table for the costs, 2^40×2^40 overflows int when multiplied.
		{"oversized shape", `{"cluster":{"servers":64,"gpusPerServer":64},"graphFingerprint":"x","costs":{}}`, http.StatusBadRequest},
		{"overflowing shape", `{"cluster":{"servers":1099511627776,"gpusPerServer":1099511627776},"graphFingerprint":"x","costs":{}}`, http.StatusBadRequest},
		{"one device over the cap", `{"cluster":{"servers":1,"gpusPerServer":1025},"graphFingerprint":"x","costs":{}}`, http.StatusBadRequest},
		{"largest admitted shape", `{"cluster":{"servers":4,"gpusPerServer":256},"graphFingerprint":"x"}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			resp, body := postCompute(t, srv.URL, tc.body)
			runtime.ReadMemStats(&after)
			if resp.StatusCode != tc.status {
				t.Errorf("status = %d, want %d (body %s)", resp.StatusCode, tc.status, body)
			}
			// No rejected request may allocate anything large on its way out.
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
				t.Errorf("request allocated %d bytes, want under 4 MiB", alloc)
			}
			var e map[string]string
			if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
				t.Errorf("error body not of the form {\"error\": ...}: %s", body)
			}
		})
	}

	resp, err := http.Get(srv.URL + "/v1/compute")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/compute status = %d, want 405", resp.StatusCode)
	}
}

// endlessReader streams one byte forever. It fails the read once the server
// has consumed twice the body cap, so an uncapped handler errors out
// instead of hanging.
type endlessReader struct {
	b    byte
	read int64
}

func (r *endlessReader) Read(p []byte) (int, error) {
	if r.read > 2*maxRequestBytes {
		return 0, errors.New("handler read past twice the body cap")
	}
	for i := range p {
		p[i] = r.b
	}
	r.read += int64(len(p))
	return len(p), nil
}

// TestHTTPBodyLimit streams a request whose body never ends inside an
// unfinished string: the handler must stop reading at maxRequestBytes and
// answer 413. Reading up to the cap allocates 128 MiB in all, measured (see
// maxRequestBytes). A body that declares a Content-Length over the cap must
// be answered 413 without a byte read.
func TestHTTPBodyLimit(t *testing.T) {
	svc := New(Config{Strategist: stubStrategist(nil)})
	body := &endlessReader{b: 'a'}
	req := httptest.NewRequest(http.MethodPost, "/v1/compute",
		io.MultiReader(strings.NewReader(`{"model":"`), body))
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (body %s)", rec.Code, rec.Body.Bytes())
	}
	if body.read > 2*maxRequestBytes {
		t.Errorf("handler read %d bytes, cap is %d", body.read, maxRequestBytes)
	}
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
		t.Errorf("error body not of the form {\"error\": ...}: %s", rec.Body.Bytes())
	}

	declared := &endlessReader{b: ' '}
	req = httptest.NewRequest(http.MethodPost, "/v1/compute", declared)
	req.ContentLength = maxRequestBytes + 1
	rec = httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared length: status = %d, want 413 (body %s)", rec.Code, rec.Body.Bytes())
	}
	if declared.read != 0 {
		t.Errorf("declared length: handler read %d bytes, want 0", declared.read)
	}
}

// TestHTTPHerdCoalesces is the herd through the handler: 64 concurrent
// identical full-graph POSTs against a blocked search must share it. One
// response leads the search (miss), the other 63 join it (coalesced), every
// body is byte-identical, and /v1/stats counts the 63 joins.
func TestHTTPHerdCoalesces(t *testing.T) {
	const herd = 64
	gate := make(chan struct{})
	svc := New(Config{Strategist: stubStrategist(gate), MaxQueue: herd + 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	// Runs before srv.Close on a failed wait, which would otherwise block on
	// the herd's open requests.
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	body := `{"cluster":{"servers":1,"gpusPerServer":2},"graph":` + graphJSON(t, tinyGraph(t)) + `}`

	sources := make([]string, herd)
	bodies := make([][]byte, herd)
	errs := make([]error, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/compute", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			bodies[i], errs[i] = io.ReadAll(resp.Body)
			if errs[i] == nil && resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, bodies[i])
			}
			sources[i] = resp.Header.Get(CacheHeader)
		}(i)
	}
	waitFor(t, "herd to assemble", func() bool { return svc.Stats().Cache.Misses == herd })
	if got := svc.Stats().Searches; got != 1 {
		t.Fatalf("searches while herd blocked = %d, want exactly 1", got)
	}
	release()
	wg.Wait()

	count := map[string]int{}
	for i := 0; i < herd; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0's", i)
		}
		count[sources[i]]++
	}
	if count["miss"] != 1 || count["coalesced"] != herd-1 || len(count) != 2 {
		t.Errorf("%s headers = %v, want 1 miss and %d coalesced", CacheHeader, count, herd-1)
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if st.Coalesced != herd-1 || st.Searches != 1 {
		t.Errorf("stats coalesced = %d, searches = %d; want %d and 1", st.Coalesced, st.Searches, herd-1)
	}
}

// TestBuildRequestKeepsNoBodyBytes decodes a request whose graph and costs
// the decoders read in place, then overwrites the body: the built request
// must not change, so neither decoder kept a slice of it.
func TestBuildRequestKeepsNoBodyBytes(t *testing.T) {
	g := tinyGraph(t)
	model := cost.NewModel(testCluster(t, 2))
	model.Comp.Observe(g.Op(0).Name, 1, 1500)
	model.Link.Observe(0, 1, 1<<20, 4000)
	var costs bytes.Buffer
	if err := model.WriteJSON(&costs); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	body := []byte(`{"cluster":{"servers":1,"gpusPerServer":2},"graph":` + graphJSON(t, g) + `,"costs":` + costs.String() + `}`)
	wire, err := decodeRequest(body)
	if err != nil {
		t.Fatalf("decodeRequest: %v", err)
	}
	req, err := New(Config{}).buildRequest(&wire)
	if err != nil {
		t.Fatalf("buildRequest: %v", err)
	}
	for i := range body {
		body[i] = 'x'
	}
	if got, want := graphJSON(t, req.Graph), graphJSON(t, g); got != want {
		t.Fatalf("decoded graph changed with the body:\n%s\nwant\n%s", got, want)
	}
	if got, want := CostHashOf(req.Est), CostHashOf(model); got != want {
		t.Fatalf("decoded costs changed with the body: hash %s, want %s", got, want)
	}
}
