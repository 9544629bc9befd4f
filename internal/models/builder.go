// Package models builds the computation DAGs of the nine benchmark models
// the paper evaluates (five CNNs: LeNet, AlexNet, VGG-19, ResNet200,
// Inception-v3; four NMT models: RNNLM, GNMT-4, Transformer, BERT-large),
// with per-operation FLOPs, parameter sizes, tensor sizes and splittable
// dimensions derived from the published architectures. Builders produce the
// full training graph structure: the forward DAG is mirrored into backward
// operations (each consuming its forward op's activation, which is what
// makes activation memory accumulate until the backward pass, as on real
// GPUs), and parameterized ops are paired with gradient producers so
// graph.BuildDataParallel can wire gradient aggregation.
package models

import (
	"fmt"

	"fastt/internal/graph"
)

// fwdEdge records a forward connection for backward mirroring.
type fwdEdge struct {
	from, to int
	bytes    int64
}

// builder incrementally assembles a forward DAG and then derives the
// backward pass by transposing it.
type builder struct {
	g      *graph.Graph
	batch  int
	edges  []fwdEdge
	isFwd  map[int]bool // ops that get a backward mirror
	outByt map[int]int64
	// retain scales the resident footprint of activations relative to the
	// wire tensor size, calibrating for framework-retained intermediates
	// (TensorFlow keeps more than the op outputs; see DESIGN.md).
	retain float64
	err    error
}

func newBuilder(batch int, retain float64) *builder {
	if retain <= 0 {
		retain = 1
	}
	return &builder{
		g:      graph.New(),
		batch:  batch,
		isFwd:  make(map[int]bool),
		outByt: make(map[int]int64),
		retain: retain,
	}
}

// opSpec describes one forward operation to add.
type opSpec struct {
	name     string
	kind     graph.OpKind
	flops    int64 // total for the whole batch
	params   int64 // parameter bytes
	outBytes int64 // output tensor wire size for the whole batch
	channels int
	// noGrad marks ops without a backward mirror (inputs, labels).
	noGrad bool
}

// add inserts a forward op and returns its ID; the op is connected to the
// given predecessor IDs, consuming their full outputs.
func (b *builder) add(spec opSpec, preds ...int) int {
	if b.err != nil {
		return -1
	}
	op := &graph.Op{
		Name:        spec.name,
		Kind:        spec.kind,
		FLOPs:       spec.flops,
		ParamBytes:  spec.params,
		OutputBytes: int64(b.retain * float64(spec.outBytes)),
		Batch:       b.batch,
		Channels:    spec.channels,
		Replica:     0,
	}
	id, err := b.g.AddOp(op)
	if err != nil {
		b.err = fmt.Errorf("add %q: %w", spec.name, err)
		return -1
	}
	b.outByt[id] = spec.outBytes
	if !spec.noGrad {
		b.isFwd[id] = true
	}
	for _, p := range preds {
		if p < 0 {
			continue
		}
		if err := b.g.Connect(p, id, b.outByt[p]); err != nil {
			b.err = fmt.Errorf("connect %d->%q: %w", p, spec.name, err)
			return id
		}
		b.edges = append(b.edges, fwdEdge{from: p, to: id, bytes: b.outByt[p]})
	}
	return id
}

// connectAux adds a forward edge carrying an explicit tensor size (e.g. a
// slice or context vector smaller than the producer's full output) and
// records it for backward mirroring.
func (b *builder) connectAux(from, to int, bytes int64) {
	if b.err != nil || from < 0 || to < 0 {
		return
	}
	if err := b.g.Connect(from, to, bytes); err != nil {
		b.err = fmt.Errorf("connect aux %d->%d: %w", from, to, err)
		return
	}
	b.edges = append(b.edges, fwdEdge{from: from, to: to, bytes: bytes})
}

// gradKind maps a forward kind to its backward counterpart.
func gradKind(k graph.OpKind) graph.OpKind {
	switch k {
	case graph.KindConv2D:
		return graph.KindConv2DBackprop
	case graph.KindMatMul:
		return graph.KindMatMulBackprop
	case graph.KindRelu:
		return graph.KindReluGrad
	case graph.KindMaxPool:
		return graph.KindMaxPoolGrad
	case graph.KindBatchNorm:
		return graph.KindBatchNormGrad
	case graph.KindLayerNorm:
		return graph.KindLayerNormGrad
	case graph.KindSoftmax:
		return graph.KindSoftmaxGrad
	case graph.KindLSTMCell:
		return graph.KindLSTMCellGrad
	case graph.KindEmbedding:
		return graph.KindEmbeddingGrad
	case graph.KindConcat:
		return graph.KindSplit
	case graph.KindSplit:
		return graph.KindConcat
	case graph.KindAddN:
		return graph.KindIdentity
	case graph.KindLoss:
		return graph.KindLossGrad
	default:
		return graph.KindIdentity
	}
}

// finish appends the loss and the transposed backward pass, returning the
// completed graph. lossInput is the forward op feeding the loss.
func (b *builder) finish(lossInput int) (*graph.Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	loss := b.add(opSpec{
		name: "loss", kind: graph.KindLoss,
		flops: int64(b.batch) * 1000, outBytes: 4,
		noGrad: true,
	}, lossInput)
	lossGrad := b.add(opSpec{
		name: "loss_grad", kind: graph.KindLossGrad,
		flops: int64(b.batch) * 1000, outBytes: b.outByt[lossInput],
		noGrad: true,
	}, loss)
	if b.err != nil {
		return nil, b.err
	}

	// Create backward mirrors in reverse creation order (a valid reverse
	// topological order, since ops connect only to earlier ops).
	bwd := make(map[int]int, len(b.isFwd))
	for id := b.g.NumOps() - 1; id >= 0; id-- {
		if !b.isFwd[id] {
			continue
		}
		f := b.g.Op(id)
		spec := opSpec{
			name:     f.Name + "_bp",
			kind:     gradKind(f.Kind),
			flops:    2 * f.FLOPs, // backward is ~2x forward (dX and dW)
			outBytes: b.inputBytes(id),
			channels: f.Channels,
			noGrad:   true,
		}
		gid := b.add(spec)
		if b.err != nil {
			return nil, b.err
		}
		if f.ParamBytes > 0 {
			// An in-place op write is safe only before the graph is first
			// digested (see graph.Graph); this one runs during construction.
			b.g.Op(gid).GradFor = f.Name
		}
		// Retain the forward activation until the backward op consumes it.
		if err := b.g.Connect(id, gid, b.outByt[id]); err != nil {
			return nil, fmt.Errorf("activation edge for %q: %w", f.Name, err)
		}
		bwd[id] = gid
	}

	// Transpose the forward edges: grad flows v_bp -> u_bp.
	for _, e := range b.edges {
		gu, okU := bwd[e.from]
		gv, okV := bwd[e.to]
		if !okU || !okV {
			continue // boundary (input-like) ops take no gradient
		}
		if err := b.g.Connect(gv, gu, e.bytes); err != nil {
			return nil, fmt.Errorf("transpose edge: %w", err)
		}
	}
	// Wire the loss gradient into the last forward op's mirror.
	if gid, ok := bwd[lossInput]; ok {
		if err := b.g.Connect(lossGrad, gid, b.outByt[lossInput]); err != nil {
			return nil, fmt.Errorf("loss grad edge: %w", err)
		}
	}
	if err := b.g.Validate(); err != nil {
		return nil, fmt.Errorf("built graph: %w", err)
	}
	return b.g, nil
}

// inputBytes sums the wire sizes of an op's forward inputs — the size of
// the gradients its backward mirror emits.
func (b *builder) inputBytes(id int) int64 {
	var total int64
	for _, e := range b.g.InEdges(id) {
		total += e.Bytes
	}
	if total == 0 {
		total = b.outByt[id]
	}
	return total
}

// Tensor size helpers (fp32).

// fm returns the bytes of a feature map batch x h x w x c.
func fm(batch, h, w, c int) int64 {
	return int64(batch) * int64(h) * int64(w) * int64(c) * 4
}

// vec returns the bytes of a batch x n activation matrix.
func vec(batch, n int) int64 {
	return int64(batch) * int64(n) * 4
}

// convFLOPs returns the multiply-add FLOPs of a kxk convolution producing
// an h x w x cout map from cin channels, over the batch.
func convFLOPs(batch, h, w, cin, cout, k int) int64 {
	return 2 * int64(batch) * int64(h) * int64(w) * int64(cin) * int64(cout) * int64(k) * int64(k)
}

// convParams returns the parameter bytes of a kxk convolution (+bias).
func convParams(cin, cout, k int) int64 {
	return (int64(k)*int64(k)*int64(cin)*int64(cout) + int64(cout)) * 4
}

// denseFLOPs returns the FLOPs of a dense layer in->out over the batch.
func denseFLOPs(batch, in, out int) int64 {
	return 2 * int64(batch) * int64(in) * int64(out)
}

// denseParams returns the parameter bytes of a dense layer (+bias).
func denseParams(in, out int) int64 {
	return (int64(in)*int64(out) + int64(out)) * 4
}
