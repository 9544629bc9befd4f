package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// writeJSONOracle is the reflective encoding/json writer WriteJSON
// replaced. WriteJSON must reproduce its bytes exactly: fingerprints, and
// with them persisted artifacts and serve cache keys, hash this document.
func writeJSONOracle(g *Graph, w io.Writer) error {
	doc := jsonGraph{
		Ops:   make([]jsonOp, 0, len(g.ops)),
		Edges: make([]jsonEdge, 0, len(g.edges)),
	}
	for _, op := range g.ops {
		doc.Ops = append(doc.Ops, jsonOp{
			Name:           op.Name,
			Kind:           op.Kind.String(),
			FLOPs:          op.FLOPs,
			ParamBytes:     op.ParamBytes,
			OutputBytes:    op.OutputBytes,
			WorkspaceBytes: op.WorkspaceBytes,
			Batch:          op.Batch,
			Channels:       op.Channels,
			Replica:        op.Replica,
			SplitOf:        op.SplitOf,
			SplitN:         op.SplitN,
			GradFor:        op.GradFor,
			ColocateWith:   op.ColocateWith,
		})
	}
	for _, e := range g.edges {
		doc.Edges = append(doc.Edges, jsonEdge{
			From:  g.ops[e.From].Name,
			To:    g.ops[e.To].Name,
			Bytes: e.Bytes,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// assertMatchesOracle fails t unless WriteJSON and writeJSONOracle write
// the same bytes for g.
func assertMatchesOracle(t *testing.T, g *Graph) {
	t.Helper()
	var got, want bytes.Buffer
	if err := g.WriteJSON(&got); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := writeJSONOracle(g, &want); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteJSON differs from the encoding/json oracle:\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}
}

// TestWriteJSONMatchesOracle builds graphs directly with AddOp, so names
// and field values the decoder would never produce (or would normalize)
// reach the encoder: every escaping rule, negative and all-zero omitempty
// fields, unknown kinds and the empty graph.
func TestWriteJSONMatchesOracle(t *testing.T) {
	names := []string{
		"plain", "html<b>&amp;</b>", "quote\"back\\slash", "ctl\x00\x01\b\f\n\r\t\x1f\x7f",
		"bad\xffutf8\xc3", "sep\u2028para\u2029", "ünïcode→✓", "emoji😀", "/slash'apos",
	}
	cases := map[string]func() *Graph{
		"empty": New,
		"no edges": func() *Graph {
			g := New()
			g.MustAddOp(&Op{Name: "lone", Kind: KindRelu})
			return g
		},
		"all zero fields": func() *Graph {
			g := New()
			a := g.MustAddOp(&Op{Name: "a"})
			b := g.MustAddOp(&Op{Name: "b", Kind: KindVariable})
			g.MustConnect(a, b, 0)
			return g
		},
		"every field, negative values": func() *Graph {
			g := New()
			a := g.MustAddOp(&Op{
				Name: "conv", Kind: KindConv2D, FLOPs: -1, ParamBytes: 1 << 62,
				OutputBytes: -9223372036854775808, WorkspaceBytes: 10, Batch: -3, Channels: 64,
				Replica: -1, SplitOf: "orig", SplitN: 4, GradFor: "g", ColocateWith: "c",
			})
			b := g.MustAddOp(&Op{Name: "unknown kind", Kind: OpKind(999), Replica: 7})
			g.MustConnect(a, b, 9223372036854775807)
			return g
		},
		"escaped strings": func() *Graph {
			g := New()
			prev := -1
			for i, n := range names {
				id := g.MustAddOp(&Op{Name: n, Kind: KindIdentity, SplitOf: names[(i+1)%len(names)],
					GradFor: names[(i+2)%len(names)], ColocateWith: names[(i+3)%len(names)]})
				if prev >= 0 {
					g.MustConnect(prev, id, int64(i))
				}
				prev = id
			}
			return g
		},
		"many flushes": func() *Graph { return wideGraph(3000) },
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) { assertMatchesOracle(t, build()) })
	}
}

// wideGraph is n plain-ASCII-named ops, each fed by the previous one and by
// op 0: a document many times jsonFlushAt.
func wideGraph(n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		id := g.MustAddOp(&Op{Name: "layer" + strconv.Itoa(i) + "/conv", Kind: KindConv2D,
			FLOPs: int64(i) * 1000, OutputBytes: 4096, Batch: 8, Channels: 64, Replica: i%4 - 1})
		if i > 0 {
			g.MustConnect(id-1, id, int64(i))
		}
		if i > 1 {
			g.MustConnect(0, id, 1)
		}
	}
	return g
}

// failWriter accepts n bytes, then fails every write.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, io.ErrShortWrite
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteJSONReportsWriteError(t *testing.T) {
	if err := wideGraph(3000).WriteJSON(&failWriter{n: 1}); err != io.ErrShortWrite {
		t.Fatalf("WriteJSON error = %v, want %v", err, io.ErrShortWrite)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := New()
	a := g.MustAddOp(&Op{
		Name: "conv", Kind: KindConv2D, FLOPs: 123, ParamBytes: 456,
		OutputBytes: 789, WorkspaceBytes: 10, Batch: 8, Channels: 64,
		Replica: -1, GradFor: "x", ColocateWith: "y",
	})
	b := g.MustAddOp(&Op{Name: "relu", Kind: KindRelu, Batch: 8})
	g.MustConnect(a, b, 789)

	var sb strings.Builder
	if err := g.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if got.NumOps() != 2 || got.NumEdges() != 1 {
		t.Fatalf("shape = %d ops %d edges", got.NumOps(), got.NumEdges())
	}
	conv, ok := got.OpByName("conv")
	if !ok {
		t.Fatal("conv missing")
	}
	want := g.Op(a)
	if conv.Kind != want.Kind || conv.FLOPs != want.FLOPs ||
		conv.ParamBytes != want.ParamBytes || conv.OutputBytes != want.OutputBytes ||
		conv.WorkspaceBytes != want.WorkspaceBytes || conv.Batch != want.Batch ||
		conv.Channels != want.Channels || conv.Replica != want.Replica ||
		conv.GradFor != want.GradFor || conv.ColocateWith != want.ColocateWith {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", conv, want)
	}
	e := got.Edges()[0]
	if got.Op(e.From).Name != "conv" || got.Op(e.To).Name != "relu" || e.Bytes != 789 {
		t.Errorf("edge mismatch: %+v", e)
	}
}

func TestReadJSONRejectsUnknownKind(t *testing.T) {
	doc := `{"ops":[{"name":"x","kind":"Quantum"}],"edges":[]}`
	if _, err := ReadJSON(strings.NewReader(doc)); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestReadJSONRejectsDanglingEdge(t *testing.T) {
	doc := `{"ops":[{"name":"x","kind":"Relu"}],"edges":[{"from":"x","to":"y","bytes":1}]}`
	if _, err := ReadJSON(strings.NewReader(doc)); err == nil {
		t.Error("dangling edge accepted")
	}
}

func TestReadJSONRejectsUnknownFields(t *testing.T) {
	doc := `{"ops":[{"name":"x","kind":"Relu","bogus":1}],"edges":[]}`
	if _, err := ReadJSON(strings.NewReader(doc)); err == nil {
		t.Error("unknown field accepted")
	}
}

// acceptSetCases pin what ReadJSON accepts and how it decodes it, quirks of
// the encoding/json decoder it replaced included. FuzzReadJSON seeds its
// corpus with them. ops lists the decoded ops as "name/kind/flops"; nil
// means the document is rejected.
var acceptSetCases = []struct {
	name, doc string
	ops       []string
}{
	{"repeated array key decodes into the earlier elements",
		`{"ops":[{"name":"a","kind":"Relu","flops":5}],"ops":[{"name":"b","kind":"Relu"}]}`,
		[]string{"b/Relu/5"}},
	{"repeated scalar key takes the last value",
		`{"ops":[{"name":"a","kind":"Relu","flops":1,"flops":2}]}`, []string{"a/Relu/2"}},
	{"keys fold case, Unicode included",
		`{"OPS":[{"Name":"a","KIND":"Relu","flop\u017f":7}]}`, []string{"a/Relu/7"}},
	{"top-level null is an empty graph", `null`, []string{}},
	{"whatever follows the first value is ignored",
		`{"ops":[{"name":"a","kind":"Relu"}]} junk`, []string{"a/Relu/0"}},
	{"null fields leave their values", `{"ops":[{"name":"a","kind":"Relu","flops":null,"name":null}],"edges":null}`,
		[]string{"a/Relu/0"}},
	{"invalid UTF-8 reads as U+FFFD", "{\"ops\":[{\"name\":\"a\xff\",\"kind\":\"Relu\"}]}",
		[]string{"a\ufffd/Relu/0"}},
	{"a lone surrogate escape reads as U+FFFD", `{"ops":[{"name":"\ud800","kind":"Relu"}]}`,
		[]string{"\ufffd/Relu/0"}},
	{"a surrogate pair decodes", `{"ops":[{"name":"\ud83d\ude00","kind":"Relu"}]}`,
		[]string{"\U0001f600/Relu/0"}},
	{"1.0 is not an integer", `{"ops":[{"name":"a","kind":"Relu","flops":1.0}]}`, nil},
	{"1e2 is not an integer", `{"ops":[{"name":"a","kind":"Relu","flops":1e2}]}`, nil},
	{"an integer out of range", `{"ops":[{"name":"a","kind":"Relu","flops":9223372036854775808}]}`, nil},
	{"unknown field", `{"ops":[{"name":"a","kind":"Relu","bogus":1}]}`, nil},
	{"unknown top-level field", `{"ops":[],"extra":null}`, nil},
	{"trailing comma", `{"ops":[{"name":"a","kind":"Relu"},]}`, nil},
	{"unfinished document", `{"ops":[{"name":"a","kind":"Relu"}]`, nil},
	{"string into an integer field", `{"ops":[{"name":"a","kind":"Relu","flops":"5"}]}`, nil},
	{"empty input", ``, nil},
}

func TestReadJSONAcceptSet(t *testing.T) {
	for _, tc := range acceptSetCases {
		t.Run(tc.name, func(t *testing.T) {
			assertDecodesLikeOracle(t, []byte(tc.doc))
			g, err := ReadJSON(strings.NewReader(tc.doc))
			if tc.ops == nil {
				if err == nil {
					t.Fatalf("accepted %q", tc.doc)
				}
				return
			}
			if err != nil {
				t.Fatalf("rejected %q: %v", tc.doc, err)
			}
			got := []string{}
			for _, op := range g.Ops() {
				got = append(got, op.Name+"/"+op.Kind.String()+"/"+strconv.FormatInt(op.FLOPs, 10))
			}
			if !reflect.DeepEqual(got, tc.ops) {
				t.Fatalf("ops = %q, want %q", got, tc.ops)
			}
		})
	}
}

func TestJSONRoundTripModelScale(t *testing.T) {
	g := chainGraph(t, 10)
	var sb strings.Builder
	if err := g.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if got.ComputeStats() != g.ComputeStats() {
		t.Errorf("stats changed: %+v vs %+v", got.ComputeStats(), g.ComputeStats())
	}
}

// digestOf hashes g's document without the memo.
func digestOf(t *testing.T, g *Graph) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	if err := writeJSONOracle(g, h); err != nil {
		t.Fatal(err)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func TestDigestTracksStructuralMutations(t *testing.T) {
	g := wideGraph(10)
	d0 := g.Digest()
	if d0 != digestOf(t, g) {
		t.Fatal("Digest is not the SHA-256 of the document")
	}
	if g.Digest() != d0 {
		t.Fatal("Digest not stable on an unchanged graph")
	}
	id := g.MustAddOp(&Op{Name: "late", Kind: KindRelu})
	d1 := g.Digest()
	if d1 == d0 || d1 != digestOf(t, g) {
		t.Fatal("AddOp after Digest did not refresh the digest")
	}
	g.MustConnect(3, id, 8)
	d2 := g.Digest()
	if d2 == d1 || d2 != digestOf(t, g) {
		t.Fatal("Connect after Digest did not refresh the digest")
	}
}

func TestDigestCloneGetsItsOwn(t *testing.T) {
	g := wideGraph(10)
	orig := g.Digest()
	c := g.Clone()
	if c.Digest() != orig {
		t.Fatal("unchanged clone digests differently")
	}
	c = g.Clone()
	c.Op(4).FLOPs++ // edit the copy before it is ever digested
	if got := c.Digest(); got == orig || got != digestOf(t, c) {
		t.Fatal("clone with an edited op inherited the original's digest")
	}
	if g.Digest() != orig || orig != digestOf(t, g) {
		t.Fatal("editing a clone changed the original's digest")
	}
}

func TestDigestConcurrentCallersAgree(t *testing.T) {
	g := wideGraph(500)
	want := digestOf(t, g)
	var wg sync.WaitGroup
	got := make([][sha256.Size]byte, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = g.Digest()
		}()
	}
	wg.Wait()
	for i, d := range got {
		if d != want {
			t.Fatalf("goroutine %d: digest %x, want %x", i, d, want)
		}
	}
}
