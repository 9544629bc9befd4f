package jsonread

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

type testElem struct {
	S string `json:"s"`
	I int    `json:"i"`
}

// testDoc has a field of every kind the Reader decodes.
type testDoc struct {
	S    string          `json:"s"`
	I    int64           `json:"i"`
	N    int             `json:"n"`
	F    float64         `json:"f"`
	Raw  json.RawMessage `json:"raw"`
	Sub  testElem        `json:"sub"`
	List []testElem      `json:"list"`
}

var (
	docFields  = []string{"s", "i", "n", "f", "raw", "sub", "list"}
	elemFields = []string{"s", "i"}
)

// decodeDoc decodes a testDoc with the Reader; strict rejects unknown
// fields, otherwise they are skipped.
func decodeDoc(data []byte, strict bool) (testDoc, error) {
	var doc testDoc
	r := New(data)
	unknown := func(key []byte) {
		if strict {
			r.Unknown(key)
		} else {
			r.Skip()
		}
	}
	elem := func(e *testElem) {
		r.Object(func(key []byte) {
			switch Field(key, elemFields) {
			case "s":
				r.String(&e.S)
			case "i":
				r.Int(&e.I)
			default:
				unknown(key)
			}
		})
	}
	r.Object(func(key []byte) {
		switch Field(key, docFields) {
		case "s":
			r.String(&doc.S)
		case "i":
			r.Int64(&doc.I)
		case "n":
			r.Int(&doc.N)
		case "f":
			r.Float64(&doc.F)
		case "raw":
			doc.Raw = r.Raw()
		case "sub":
			elem(&doc.Sub)
		case "list":
			Slice(r, &doc.List, elem)
		default:
			unknown(key)
		}
	})
	return doc, r.Err()
}

func decodeDocOracle(data []byte, strict bool) (testDoc, error) {
	var doc testDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	if strict {
		dec.DisallowUnknownFields()
	}
	err := dec.Decode(&doc)
	return doc, err
}

func assertMatchesOracle(t *testing.T, data []byte) {
	t.Helper()
	for _, strict := range []bool{false, true} {
		got, err := decodeDoc(data, strict)
		want, werr := decodeDocOracle(data, strict)
		if (err == nil) != (werr == nil) {
			t.Fatalf("strict=%v: error %v, oracle error %v, on %q", strict, err, werr, data)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("strict=%v: decoded %#v, oracle %#v, on %q", strict, got, want, data)
		}
	}
}

// oracleCases exercise every path of the Reader; each must decode exactly
// as encoding/json does.
var oracleCases = []string{
	`{"s":"x","i":-5,"n":7,"f":1.5e3,"raw":[1,{"a":null}],"sub":{"s":"y"},"list":[{"s":"a"},{"i":2}]}`,
	// Repeated keys and slices decoded into their earlier elements, stale
	// ones past the length included.
	`{"list":[{"s":"a","i":1},{"s":"b","i":2},{"s":"c","i":3}],"list":[{"s":"x"}],"list":[{"i":9},{"i":8}]}`,
	`{"list":[{"s":"a"}],"list":[],"list":[{"i":1},{"i":2}]}`,
	`{"sub":{"s":"a"},"sub":{"i":1},"s":"p","s":"q"}`,
	`{"list":null}`, `{"list":[null]}`, `{"sub":null}`, `{"raw":null}`, `{"s":null,"i":null,"f":null}`,
	`{"list":{}}`, `{"list":"x"}`, `{"sub":[]}`, `{"s":1}`, `{"i":"1"}`, `{"i":true}`, `{"f":false}`, `{"i":{}}`,
	// Numbers.
	`{"f":1e400}`, `{"f":-0}`, `{"f":1E-400}`, `{"f":"1"}`, `{"f":0.5e+3}`, `{"f":123456789012345678901234567890}`,
	`{"i":-9223372036854775808}`, `{"i":9223372036854775807}`, `{"i":-9223372036854775809}`,
	`{"i":123456789012345678}`, `{"i":1234567890123456789}`, `{"i":12345678901234567890}`,
	`{"n":1.0}`, `{"i":1e2}`, `{"i":-0}`, `{"i":01}`, `{"i":-}`, `{"i":1.}`, `{"i":1e}`, `{"i":1e+}`, `{"i":.5}`,
	`{"i":+1}`, `{"i":-a}`, `{"i":1`, `{"i":-`, `{"f":2.`, `{"f":2e`,
	// Strings.
	`{"s":"\"\\\/\b\f\n\r\tAéé"}`, `{"s":"😀"}`, `{"s":"\ud800\ud800"}`, `{"s":"\udc00"}`,
	`{"s":"\ud800A"}`, `{"s":"\ud800x"}`, `{"s":"\ud800\u12"}`, `{"s":"\x"}`, `{"s":"\u12"}`, `{"s":"\u12g4"}`,
	"{\"s\":\"a\x01\"}", "{\"s\":\"a\xff\xfe\"}", "{\"s\":\"\xed\xa0\x80\"}", "{\"s\":\"é\x7f\"}", "{\"s\":\"\xe2\x82\"}",
	`{"s":"\ud800`, `{"s":"abc`, `{"s":"\`, `{"s":"\u00`, "{\"s\":\"\xe2\x82",
	// Structure.
	`{"s":"x",}`, `{"s" "x"}`, `{,}`, `{"s":"x"`, `{"s":"x" "i":1}`, `{"raw":[1,2,]}`, `{"raw":[1 2]}`,
	`{"raw":tru}`, `{"raw":truex}`, `{"raw":nul}`, `{"raw":fals}`, `{"raw":{"a":1 "b":2}}`, `{"raw":{"a"}}`,
	`{"raw":{1:2}}`, `{"raw":"\u0000"}`, `{"raw":[true,false,null,-1.5e-3,"x",{}]}`, `{"raw":}`, `{"raw":]}`,
	`{"unknown":{"deep":[[[]]],"x":"\n"}}`, `{"unknown":[1,"a",{"b":[null]}],"s":"k"}`, `{"unknown":x}`,
	// Top level.
	`null`, `nullx`, "  \t\r\n{} trailing", `[]`, `"str"`, `123`, `true`, ``, `   `, `{}`, "\x00{}", `nul`, `{`, `}`,
	// Keys.
	`{"S":"x"}`, `{"ſ":"x"}`, `{"s":"x"}`, `{"\ud800":1}`, `{"LIST":[{"S":"k"}]}`, "{\"s\xff\":1}",
	// Depth: the top-level object and 9999 arrays reach the limit, one more
	// passes it.
	`{"raw":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"raw":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"unknown":` + strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat("}", 10000) + `}`,
}

func TestReaderMatchesOracle(t *testing.T) {
	for _, c := range oracleCases {
		assertMatchesOracle(t, []byte(c))
	}
}

// decoderSettled is what Settled predicts: whether encoding/json's Decoder,
// reading prefix and then a failing reader, finishes without the failure.
func decoderSettled(prefix []byte) bool {
	errMore := errors.New("read past the prefix")
	var v any
	err := json.NewDecoder(io.MultiReader(bytes.NewReader(prefix), iotest.ErrReader(errMore))).Decode(&v)
	return !errors.Is(err, errMore)
}

func FuzzReader(f *testing.F) {
	for _, c := range oracleCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		assertMatchesOracle(t, data)
		if got, want := Settled(data), decoderSettled(data); got != want {
			t.Fatalf("Settled(%q) = %v, the Decoder says %v", data, got, want)
		}
	})
}

// TestSettled checks Settled against the Decoder on every prefix of every
// oracle case.
func TestSettled(t *testing.T) {
	for _, c := range oracleCases {
		for i := 0; i <= len(c) && i < 200; i++ {
			prefix := []byte(c[:i])
			if got, want := Settled(prefix), decoderSettled(prefix); got != want {
				t.Errorf("Settled(%q) = %v, the Decoder says %v", prefix, got, want)
			}
		}
	}
}

func TestReadAll(t *testing.T) {
	const doc = `{"s":"x"}`
	for name, r := range map[string]io.Reader{
		"sized":    strings.NewReader(doc),
		"unsized":  iotest.OneByteReader(strings.NewReader(doc)),
		"buffered": bytes.NewBufferString(doc),
	} {
		got, err := ReadAll(r)
		if err != nil || string(got) != doc {
			t.Errorf("%s: ReadAll = %q, %v", name, got, err)
		}
	}
	if _, err := ReadAll(iotest.ErrReader(iotest.ErrTimeout)); err != iotest.ErrTimeout {
		t.Errorf("ReadAll error = %v, want %v", err, iotest.ErrTimeout)
	}
}

// TestReadAllBufferAliases pins that a *bytes.Buffer's bytes are taken
// without a copy and the buffer is drained, as a read to EOF drains it.
func TestReadAllBufferAliases(t *testing.T) {
	data := []byte(`prefix{"s":"x"}`)
	buf := bytes.NewBuffer(data)
	buf.Next(len("prefix"))
	got, err := ReadAll(buf)
	if err != nil || string(got) != `{"s":"x"}` {
		t.Fatalf("ReadAll = %q, %v", got, err)
	}
	if &got[0] != &data[len("prefix")] {
		t.Error("ReadAll copied a *bytes.Buffer's bytes")
	}
	if buf.Len() != 0 {
		t.Errorf("buffer keeps %d unread bytes after ReadAll", buf.Len())
	}
}
