package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// decodeRequestOracle is the encoding/json decoder decodeRequest replaced,
// and the reference for its accept set and decoded documents.
func decodeRequestOracle(body []byte) (computeRequest, error) {
	var wire computeRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&wire)
	return wire, err
}

// assertDecodesLikeOracle fails t unless decodeRequest and the oracle both
// reject body or both accept it with deeply equal documents, and returns
// decodeRequest's document.
func assertDecodesLikeOracle(t *testing.T, body []byte) (computeRequest, error) {
	t.Helper()
	got, err := decodeRequest(body)
	want, werr := decodeRequestOracle(body)
	if (err == nil) != (werr == nil) {
		t.Fatalf("decodeRequest error %v, oracle error %v, on %q", err, werr, body)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeRequest and the oracle disagree on %q:\n got %#v\nwant %#v", body, got, want)
	}
	return got, err
}

// envelopeCases pin what /v1/compute accepts and how it answers, quirks of
// the encoding/json decoder decodeRequest replaced included. FuzzCompute
// seeds its corpus with them. The service behind them runs the stub
// strategist and caches nothing but what these requests compute, so a
// fingerprint-only request is a 404. model, when set, is the decoded Model.
var envelopeCases = []struct {
	name, body string
	status     int
	model      string
	sameAs     string
}{
	{"repeated object key decodes into the earlier value",
		`{"cluster":{"servers":1},"cluster":{"gpusPerServer":2},"graphFingerprint":"ffff"}`, http.StatusNotFound, "", ""},
	{"repeated scalar key takes the last value",
		`{"model":"a","model":"b","cluster":{"servers":1,"gpusPerServer":2},"graphFingerprint":"ffff"}`, http.StatusNotFound, "b", ""},
	{"keys fold case, Unicode included",
		`{"clu\u017fter":{"ſervers":1,"GPUSPERSERVER":2},"GraphFingerprint":"ffff"}`, http.StatusNotFound, "", ""},
	{"top-level null is an empty request", `null`, http.StatusBadRequest, "", ""},
	{"whatever follows the first value is ignored",
		`{"cluster":{"servers":1,"gpusPerServer":2},"graphFingerprint":"ffff"} junk`, http.StatusNotFound, "", ""},
	{"1.0 is not an integer",
		`{"cluster":{"servers":1.0,"gpusPerServer":2},"graphFingerprint":"ffff"}`, http.StatusBadRequest, "", ""},
	{"1e3 is not an integer",
		`{"cluster":{"servers":1,"gpusPerServer":2},"graphFingerprint":"ffff","timeoutMs":1e3}`, http.StatusBadRequest, "", ""},
	{"an integer out of range",
		`{"cluster":{"servers":1,"gpusPerServer":2},"graphFingerprint":"ffff","timeoutMs":9223372036854775808}`, http.StatusBadRequest, "", ""},
	{"null fields leave their values",
		`{"model":"m","model":null,"cluster":{"servers":1,"gpusPerServer":2,"devices":null},"graphFingerprint":"ffff","costHash":null,"timeoutMs":null}`,
		http.StatusNotFound, "m", ""},
	{"invalid UTF-8 and a lone surrogate read as U+FFFD",
		"{\"model\":\"a\xff\\ud800\",\"cluster\":{\"servers\":1,\"gpusPerServer\":2},\"graphFingerprint\":\"ffff\"}",
		http.StatusNotFound, "a\ufffd\ufffd", ""},
	{"a null graph is an empty graph",
		`{"cluster":{"servers":1,"gpusPerServer":2},"graph":null}`, http.StatusOK, "", ""},
	{"an empty graph object is an empty graph",
		`{"cluster":{"servers":1,"gpusPerServer":2},"graph":{}}`, http.StatusOK, "", ""},
	{"unknown field", `{"cluster":{"servers":1,"gpusPerServer":2},"graphFingerprint":"ffff","bogus":1}`, http.StatusBadRequest, "", ""},
	{"unknown cluster field", `{"cluster":{"servers":1,"gpusPerServer":2,"gpus":2},"graphFingerprint":"ffff"}`, http.StatusBadRequest, "", ""},
	{"graph nested past the depth limit",
		`{"cluster":{"servers":1,"gpusPerServer":2},"graph":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
		http.StatusBadRequest, "", ""},
	{"unfinished envelope", `{"cluster":{"servers":1,"gpusPerServer":2}`, http.StatusBadRequest, "", ""},
	{"empty body", ``, http.StatusBadRequest, "", ""},
	{"a null seed is no seed",
		`{"cluster":{"servers":1,"gpusPerServer":2},"graph":{},"seed":null}`, http.StatusOK, "",
		`{"cluster":{"servers":1,"gpusPerServer":2},"graph":{}}`},
	{"null costs are no costs",
		`{"cluster":{"servers":1,"gpusPerServer":2},"graph":{},"costs":null}`, http.StatusOK, "",
		`{"cluster":{"servers":1,"gpusPerServer":2},"graph":{}}`},
}

func TestHTTPEnvelopeAcceptSet(t *testing.T) {
	h := New(Config{Strategist: stubStrategist(nil)}).Handler()
	for _, tc := range envelopeCases {
		t.Run(tc.name, func(t *testing.T) {
			wire, err := assertDecodesLikeOracle(t, []byte(tc.body))
			if err == nil && tc.model != "" && wire.Model != tc.model {
				t.Errorf("model = %q, want %q", wire.Model, tc.model)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compute", strings.NewReader(tc.body)))
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.status, rec.Body.Bytes())
			}
			if tc.sameAs != "" {
				ref := httptest.NewRecorder()
				New(Config{Strategist: stubStrategist(nil)}).Handler().ServeHTTP(ref,
					httptest.NewRequest(http.MethodPost, "/v1/compute", strings.NewReader(tc.sameAs)))
				if ref.Code != rec.Code || responseKey(t, ref) != responseKey(t, rec) {
					t.Fatalf("answered %d %s, without the field %d %s",
						rec.Code, rec.Body.Bytes(), ref.Code, ref.Body.Bytes())
				}
			}
			if rec.Code != http.StatusOK {
				return
			}
			var cr computeResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
				t.Fatalf("decode response: %v", err)
			}
			var art struct{ Placement []int }
			if err := json.Unmarshal(cr.Artifact, &art); err != nil || art.Placement == nil || len(art.Placement) != 0 {
				t.Errorf("want an empty placement, got %s (%v)", cr.Artifact, err)
			}
		})
	}
}

// responseKey returns the cache key of a 200 answer, and "" for any other.
func responseKey(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	if rec.Code != http.StatusOK {
		return ""
	}
	var cr computeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return cr.Key
}

// TestHTTPBodyPastCap streams bodies that never end behind a first value
// that is already decided inside the cap: a complete envelope is answered
// as if it were the whole body, and so is a syntax error, neither with 413.
func TestHTTPBodyPastCap(t *testing.T) {
	h := New(Config{Strategist: stubStrategist(nil)}).Handler()
	for _, tc := range []struct {
		name, prefix string
		status       int
	}{
		{"complete envelope", `{"cluster":{"servers":1,"gpusPerServer":2},"graphFingerprint":"ffff"}`, http.StatusNotFound},
		{"syntax error", `{"cluster":{"servers":1x`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := &endlessReader{b: ' '}
			req := httptest.NewRequest(http.MethodPost, "/v1/compute",
				io.MultiReader(strings.NewReader(tc.prefix), body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.status, rec.Body.Bytes())
			}
			if body.read > 2*maxRequestBytes {
				t.Errorf("handler read %d bytes, cap is %d", body.read, maxRequestBytes)
			}
		})
	}
}

// FuzzCompute drives /v1/compute end to end on arbitrary bodies, with the
// stub strategist behind it: the handler never panics, answers only with
// the statuses the API documents, and decodeRequest accepts exactly the
// envelopes the encoding/json oracle accepts, with the same fields.
func FuzzCompute(f *testing.F) {
	f.Add([]byte(`{"cluster":{"servers":1,"gpusPerServer":2},"graph":{"ops":[{"name":"a","kind":"Relu"}]}}`))
	f.Add([]byte(`{"cluster":{"servers":1,"gpusPerServer":2},"graph":{"ops":[{"name":"a","kind":"Relu"}]},` +
		`"costs":{"comp":[{"name":"a","dev":0,"n":1,"mean":5}]},"timeoutMs":1000}`))
	f.Add([]byte(`{"cluster":{"servers":1,"gpusPerServer":2},"graphFingerprint":"ab","seed":{"schemaVersion":1}}`))
	for _, tc := range envelopeCases {
		f.Add([]byte(tc.body))
	}
	h := New(Config{Strategist: stubStrategist(nil), CacheBytes: 1 << 20}).Handler()
	allowed := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusRequestEntityTooLarge: true, http.StatusTooManyRequests: true, http.StatusGatewayTimeout: true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		_, err := assertDecodesLikeOracle(t, body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compute", bytes.NewReader(body)))
		if !allowed[rec.Code] {
			t.Fatalf("status %d on %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		if err != nil && rec.Code != http.StatusBadRequest {
			t.Fatalf("undecodable envelope answered %d, want 400: %q", rec.Code, body)
		}
	})
}
