package graph

import (
	"crypto/sha256"
	"fmt"
	"io"

	"fastt/internal/jsonread"
	"fastt/internal/jsonwrite"
)

// jsonOp is the serialized form of an Op.
type jsonOp struct {
	Name           string `json:"name"`
	Kind           string `json:"kind"`
	FLOPs          int64  `json:"flops,omitempty"`
	ParamBytes     int64  `json:"paramBytes,omitempty"`
	OutputBytes    int64  `json:"outputBytes,omitempty"`
	WorkspaceBytes int64  `json:"workspaceBytes,omitempty"`
	Batch          int    `json:"batch,omitempty"`
	Channels       int    `json:"channels,omitempty"`
	Replica        int    `json:"replica,omitempty"`
	SplitOf        string `json:"splitOf,omitempty"`
	SplitN         int    `json:"splitN,omitempty"`
	GradFor        string `json:"gradFor,omitempty"`
	ColocateWith   string `json:"colocateWith,omitempty"`
}

// jsonEdge is the serialized form of an Edge, referencing ops by name so
// the format is stable under ID renumbering.
type jsonEdge struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Bytes int64  `json:"bytes"`
}

// jsonGraph is the on-wire document.
type jsonGraph struct {
	Ops   []jsonOp   `json:"ops"`
	Edges []jsonEdge `json:"edges"`
}

// kindByName inverts the OpKind string mapping.
var _kindByName = func() map[string]OpKind {
	m := make(map[string]OpKind, len(_kindNames))
	for k, name := range _kindNames {
		m[name] = k
	}
	return m
}()

// WriteJSON serializes the graph as a stable, name-referenced JSON document
// suitable for storing model definitions or exchanging graphs with other
// tools. The bytes are exactly what encoding/json's Encoder with a
// two-space indent writes for jsonGraph (omitempty fields, HTML-escaped
// strings, trailing newline) — Digest hashes them, so they must never
// change — but the document is appended field by field into one small
// buffer that is flushed as it fills, so writing a graph of any size
// allocates O(1).
func (g *Graph) WriteJSON(w io.Writer) error {
	e := jsonWriter{jsonwrite.New(w)}
	e.Raw("{\n  \"ops\": [")
	for i, op := range g.ops {
		if i > 0 {
			e.Raw(",")
		}
		e.Raw("\n    {\n      \"name\": ")
		e.String(op.Name)
		e.Raw(",\n      \"kind\": ")
		e.String(op.Kind.String())
		e.optInt("flops", op.FLOPs)
		e.optInt("paramBytes", op.ParamBytes)
		e.optInt("outputBytes", op.OutputBytes)
		e.optInt("workspaceBytes", op.WorkspaceBytes)
		e.optInt("batch", int64(op.Batch))
		e.optInt("channels", int64(op.Channels))
		e.optInt("replica", int64(op.Replica))
		e.optStr("splitOf", op.SplitOf)
		e.optInt("splitN", int64(op.SplitN))
		e.optStr("gradFor", op.GradFor)
		e.optStr("colocateWith", op.ColocateWith)
		e.Raw("\n    }")
	}
	if len(g.ops) > 0 {
		e.Raw("\n  ")
	}
	e.Raw("],\n  \"edges\": [")
	for i, ed := range g.edges {
		if i > 0 {
			e.Raw(",")
		}
		e.Raw("\n    {\n      \"from\": ")
		e.String(g.ops[ed.From].Name)
		e.Raw(",\n      \"to\": ")
		e.String(g.ops[ed.To].Name)
		e.Raw(",\n      \"bytes\": ")
		e.Int(ed.Bytes)
		e.Raw("\n    }")
	}
	if len(g.edges) > 0 {
		e.Raw("\n  ")
	}
	e.Raw("]\n}\n")
	return e.Flush()
}

// graphDigest is a memoised Digest and the graph version it was taken at.
type graphDigest struct {
	version uint64
	sum     [sha256.Size]byte
}

// Digest returns the SHA-256 of the graph's WriteJSON document, the basis of
// strategy.Fingerprint. It is computed once per structural version and
// memoised on the graph, so every artifact, seed check and cache key built
// on the same graph shares one hash. Concurrent calls are safe as long as
// nothing mutates the graph; ops must not be edited in place after the
// first call (see Graph).
func (g *Graph) Digest() [sha256.Size]byte {
	if d := g.digest.Load(); d != nil && d.version == g.version {
		return d.sum
	}
	d := &graphDigest{version: g.version}
	h := sha256.New()
	_ = g.WriteJSON(h) // a hash.Hash never fails a write
	h.Sum(d.sum[:0])
	g.digest.Store(d)
	return d.sum
}

// jsonWriter appends WriteJSON's document: the shared append encoder plus
// the graph document's two-space-indented omitempty fields.
type jsonWriter struct{ jsonwrite.Writer }

// optInt appends an omitempty integer field.
func (e *jsonWriter) optInt(key string, v int64) {
	if v == 0 {
		return
	}
	e.key(key)
	e.Int(v)
}

// optStr appends an omitempty string field.
func (e *jsonWriter) optStr(key, v string) {
	if v == "" {
		return
	}
	e.key(key)
	e.String(v)
}

func (e *jsonWriter) key(key string) {
	e.Raw(",\n      \"")
	e.Raw(key)
	e.Raw("\": ")
}

var (
	graphFields = []string{"ops", "edges"}
	opFields    = []string{"name", "kind", "flops", "paramBytes", "outputBytes", "workspaceBytes",
		"batch", "channels", "replica", "splitOf", "splitN", "gradFor", "colocateWith"}
	edgeFields = []string{"from", "to", "bytes"}
)

// decodeGraph reads a jsonGraph document from the first JSON value in data,
// accepting and decoding exactly what encoding/json's Decoder with unknown
// fields disallowed does (see package jsonread).
func decodeGraph(data []byte) (jsonGraph, error) {
	var doc jsonGraph
	r := jsonread.New(data)
	r.Object(func(key []byte) {
		switch jsonread.Field(key, graphFields) {
		case "ops":
			jsonread.Slice(r, &doc.Ops, func(op *jsonOp) { decodeOp(r, op) })
		case "edges":
			jsonread.Slice(r, &doc.Edges, func(e *jsonEdge) {
				r.Object(func(key []byte) {
					switch jsonread.Field(key, edgeFields) {
					case "from":
						r.String(&e.From)
					case "to":
						r.String(&e.To)
					case "bytes":
						r.Int64(&e.Bytes)
					default:
						r.Unknown(key)
					}
				})
			})
		default:
			r.Unknown(key)
		}
	})
	return doc, r.Err()
}

func decodeOp(r *jsonread.Reader, op *jsonOp) {
	r.Object(func(key []byte) {
		switch jsonread.Field(key, opFields) {
		case "name":
			r.String(&op.Name)
		case "kind":
			r.String(&op.Kind)
		case "flops":
			r.Int64(&op.FLOPs)
		case "paramBytes":
			r.Int64(&op.ParamBytes)
		case "outputBytes":
			r.Int64(&op.OutputBytes)
		case "workspaceBytes":
			r.Int64(&op.WorkspaceBytes)
		case "batch":
			r.Int(&op.Batch)
		case "channels":
			r.Int(&op.Channels)
		case "replica":
			r.Int(&op.Replica)
		case "splitOf":
			r.String(&op.SplitOf)
		case "splitN":
			r.Int(&op.SplitN)
		case "gradFor":
			r.String(&op.GradFor)
		case "colocateWith":
			r.String(&op.ColocateWith)
		default:
			r.Unknown(key)
		}
	})
}

// ReadJSON parses a graph previously produced by WriteJSON (or authored by
// hand) and validates it. It reads r to EOF but decodes only the first JSON
// value, ignoring whatever follows it.
func ReadJSON(r io.Reader) (*Graph, error) {
	data, err := jsonread.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("read graph: %w", err)
	}
	doc, err := decodeGraph(data)
	if err != nil {
		return nil, fmt.Errorf("decode graph: %w", err)
	}
	g := NewWithCapacity(len(doc.Ops), len(doc.Edges))
	for _, jo := range doc.Ops {
		kind, ok := _kindByName[jo.Kind]
		if !ok {
			return nil, fmt.Errorf("op %q: unknown kind %q", jo.Name, jo.Kind)
		}
		op := &Op{
			Name:           jo.Name,
			Kind:           kind,
			FLOPs:          jo.FLOPs,
			ParamBytes:     jo.ParamBytes,
			OutputBytes:    jo.OutputBytes,
			WorkspaceBytes: jo.WorkspaceBytes,
			Batch:          jo.Batch,
			Channels:       jo.Channels,
			Replica:        jo.Replica,
			SplitOf:        jo.SplitOf,
			SplitN:         jo.SplitN,
			GradFor:        jo.GradFor,
			ColocateWith:   jo.ColocateWith,
		}
		if _, err := g.AddOp(op); err != nil {
			return nil, err
		}
	}
	for _, je := range doc.Edges {
		from, ok := g.OpByName(je.From)
		if !ok {
			return nil, fmt.Errorf("edge references unknown op %q", je.From)
		}
		to, ok := g.OpByName(je.To)
		if !ok {
			return nil, fmt.Errorf("edge references unknown op %q", je.To)
		}
		if err := g.Connect(from.ID, to.ID, je.Bytes); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("decoded graph: %w", err)
	}
	return g, nil
}
