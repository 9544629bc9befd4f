package graph

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// decodeGraphOracle is the encoding/json decoder decodeGraph replaced, and
// the reference for its accept set and decoded documents.
func decodeGraphOracle(data []byte) (jsonGraph, error) {
	var doc jsonGraph
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&doc)
	return doc, err
}

// assertDecodesLikeOracle fails t unless decodeGraph and the oracle both
// reject data or both accept it with deeply equal documents.
func assertDecodesLikeOracle(t *testing.T, data []byte) {
	t.Helper()
	got, err := decodeGraph(data)
	want, werr := decodeGraphOracle(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("decodeGraph error %v, oracle error %v, on %q", err, werr, data)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeGraph and the oracle disagree on %q:\n got %#v\nwant %#v", data, got, want)
	}
}

// FuzzReadJSON asserts the graph decoder's contract on arbitrary bytes: it
// never panics, it accepts exactly the inputs the encoding/json oracle
// accepts and decodes them to the same document, everything it accepts is a
// valid DAG, and accepted graphs serialize canonically — the written form
// re-reads and re-writes byte-identically, and matches the encoding/json
// oracle byte for byte.
func FuzzReadJSON(f *testing.F) {
	f.Add([]byte(`{"ops":[{"name":"x","kind":"Input","outputBytes":4},` +
		`{"name":"w","kind":"Variable","paramBytes":8},` +
		`{"name":"mm","kind":"MatMul","flops":64,"batch":2}],` +
		`"edges":[{"from":"x","to":"mm","bytes":4},{"from":"w","to":"mm","bytes":8}]}`))
	f.Add([]byte(`{"ops":[],"edges":[]}`))
	f.Add([]byte(`{"ops":[{"name":"a","kind":"Relu"},{"name":"b","kind":"Relu"}],` +
		`"edges":[{"from":"a","to":"b","bytes":0},{"from":"b","to":"a","bytes":0}]}`))
	f.Add([]byte(`{"ops":[{"name":"a","kind":"NoSuchKind"}]}`))
	f.Add([]byte(`[`))
	for _, tc := range acceptSetCases {
		f.Add([]byte(tc.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		assertDecodesLikeOracle(t, data)
		g, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails Validate: %v", err)
		}
		var first bytes.Buffer
		if err := g.WriteJSON(&first); err != nil {
			t.Fatalf("accepted graph does not serialize: %v", err)
		}
		assertMatchesOracle(t, g)
		h, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("own output rejected: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := h.WriteJSON(&second); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round-trip is not canonical:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
