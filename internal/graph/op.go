// Package graph models DNN training computations as directed acyclic graphs
// whose nodes are operations (Conv2D, MatMul, ...) and whose edges carry
// tensors, mirroring the dataflow representation used by TensorFlow and by
// the FastT paper (Middleware '20). It also provides the two structural
// transformations FastT relies on: data-parallel replication of a model
// graph, and SplitOperation (Alg. 2 of the paper), which partitions a single
// operation into sub-operations joined by split/concat nodes.
package graph

import "fmt"

// OpKind enumerates the operation types understood by the kernel latency
// model and by the splitting heuristics. The set covers the nine benchmark
// models of the paper (five CNNs and four NMT models).
type OpKind int

// Operation kinds. Forward kinds are paired with their backward
// ("backprop") counterparts because the paper treats them as distinct
// operations with distinct costs (e.g. Conv1_2 vs Conv1_2bp in Table 5).
const (
	KindInput OpKind = iota + 1
	KindVariable
	KindConv2D
	KindConv2DBackprop
	KindMatMul
	KindMatMulBackprop
	KindRelu
	KindReluGrad
	KindMaxPool
	KindMaxPoolGrad
	KindBatchNorm
	KindBatchNormGrad
	KindLayerNorm
	KindLayerNormGrad
	KindSoftmax
	KindSoftmaxGrad
	KindLSTMCell
	KindLSTMCellGrad
	KindEmbedding
	KindEmbeddingGrad
	KindConcat
	KindSplit
	KindAddN
	KindApplyGradient
	KindLoss
	KindLossGrad
	KindIdentity
	KindDropout
)

var _kindNames = map[OpKind]string{
	KindInput:          "Input",
	KindVariable:       "Variable",
	KindConv2D:         "Conv2D",
	KindConv2DBackprop: "Conv2DBackprop",
	KindMatMul:         "MatMul",
	KindMatMulBackprop: "MatMulBackprop",
	KindRelu:           "Relu",
	KindReluGrad:       "ReluGrad",
	KindMaxPool:        "MaxPool",
	KindMaxPoolGrad:    "MaxPoolGrad",
	KindBatchNorm:      "BatchNorm",
	KindBatchNormGrad:  "BatchNormGrad",
	KindLayerNorm:      "LayerNorm",
	KindLayerNormGrad:  "LayerNormGrad",
	KindSoftmax:        "Softmax",
	KindSoftmaxGrad:    "SoftmaxGrad",
	KindLSTMCell:       "LSTMCell",
	KindLSTMCellGrad:   "LSTMCellGrad",
	KindEmbedding:      "Embedding",
	KindEmbeddingGrad:  "EmbeddingGrad",
	KindConcat:         "Concat",
	KindSplit:          "Split",
	KindAddN:           "AddN",
	KindApplyGradient:  "ApplyGradient",
	KindLoss:           "Loss",
	KindLossGrad:       "LossGrad",
	KindIdentity:       "Identity",
	KindDropout:        "Dropout",
}

// String returns the TensorFlow-style name of the kind.
func (k OpKind) String() string {
	if s, ok := _kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// SplitDim identifies a parallelizable dimension of an operation, following
// the paper's fine-grained parallelism taxonomy: splitting the batch
// dimension yields fine-grained data parallelism within the operation, while
// splitting the channel dimension yields fine-grained model parallelism.
type SplitDim int

// Parallelizable dimensions.
const (
	DimBatch SplitDim = iota + 1
	DimChannel
)

// String returns the dimension name used in split lists.
func (d SplitDim) String() string {
	switch d {
	case DimBatch:
		return "batch"
	case DimChannel:
		return "channel"
	default:
		return fmt.Sprintf("SplitDim(%d)", int(d))
	}
}

// splittableDims reports which dimensions an operation kind can be
// partitioned on. Matching the paper, Conv2D splits on batch or channel,
// MatMul splits on batch or channel (its reduction-free output dimension),
// BatchNorm cannot be split on batch (its statistics couple the whole
// batch), and plumbing ops (Split/Concat/AddN/ApplyGradient/Variable) are
// never split.
func splittableDims(k OpKind) []SplitDim {
	switch k {
	case KindConv2D, KindConv2DBackprop, KindMatMul, KindMatMulBackprop:
		return []SplitDim{DimBatch, DimChannel}
	case KindRelu, KindReluGrad, KindMaxPool, KindMaxPoolGrad,
		KindSoftmax, KindSoftmaxGrad, KindDropout:
		return []SplitDim{DimBatch}
	case KindLSTMCell, KindLSTMCellGrad:
		// The recurrent state couples samples across time steps only, not
		// within a step, so the batch dimension remains splittable.
		return []SplitDim{DimBatch}
	default:
		return nil
	}
}

// Op is a node of the computation DAG. The cost-relevant fields (FLOPs,
// ParamBytes, OutputBytes) are what the kernel model and cost models
// consume; the structural fields (Replica, SplitOf, SplitN) record how the
// op was derived from the original model graph.
//
// An op's fields are frozen once its graph is first digested (see Graph):
// the digest is memoised on the graph's structural version, which field
// writes do not advance.
type Op struct {
	// ID is the op's index in its graph. Assigned by Graph.AddOp.
	ID int
	// Name uniquely identifies the op within its graph; cost models key on
	// it (paper: "using the operation's name and device as the key").
	Name string
	// Kind is the operation type.
	Kind OpKind
	// FLOPs is the floating-point work of one execution of the op.
	FLOPs int64
	// ParamBytes is the size of the trainable parameters owned by the op
	// (raw weight bytes, excluding gradient/optimizer state).
	ParamBytes int64
	// OutputBytes is the size of the op's output tensor.
	OutputBytes int64
	// WorkspaceBytes is scratch memory required while the op runs.
	WorkspaceBytes int64
	// Batch is the batch-dimension extent of the op's output (0 when the op
	// has no batch dimension, e.g. Variable).
	Batch int
	// Channels is the channel/feature extent relevant for channel splits
	// (0 when not applicable).
	Channels int
	// Replica is the data-parallel replica index the op belongs to, or -1
	// for ops shared across replicas (gradient aggregation, updates).
	Replica int
	// SplitOf is the Name of the original operation this op was split from
	// (empty when the op is not a sub-operation). SplitN is the number of
	// partitions of that split (0 when not a sub-operation).
	SplitOf string
	SplitN  int
	// GradFor names the forward operation whose parameter gradient this
	// backward op produces (empty otherwise). BuildDataParallel uses it to
	// wire gradient aggregation across replicas.
	GradFor string
	// ColocateWith names an operation this op must share a device with
	// (TensorFlow-style colocation constraint, e.g. an ApplyGradient with
	// its variable's forward op). Empty means unconstrained.
	ColocateWith string
}

// SplittableDims returns the dimensions this op may be partitioned on.
// A dimension is only usable if the corresponding extent divides further
// (batch or channel extent of at least 2).
func (o *Op) SplittableDims() []SplitDim {
	dims := splittableDims(o.Kind)
	if len(dims) == 0 {
		return nil
	}
	out := make([]SplitDim, 0, len(dims))
	for _, d := range dims {
		switch d {
		case DimBatch:
			if o.Batch >= 2 {
				out = append(out, d)
			}
		case DimChannel:
			if o.Channels >= 2 {
				out = append(out, d)
			}
		}
	}
	return out
}

// clone returns a deep copy of the op.
func (o *Op) clone() *Op {
	c := *o
	return &c
}

// IsBackwardKind reports whether a kind is a gradient/backward operation.
// Backward outputs are transient: they are consumed as backprop proceeds,
// unlike forward activations which stay resident until their backward
// consumer runs.
func IsBackwardKind(k OpKind) bool {
	switch k {
	case KindConv2DBackprop, KindMatMulBackprop, KindReluGrad,
		KindMaxPoolGrad, KindBatchNormGrad, KindLayerNormGrad,
		KindSoftmaxGrad, KindLSTMCellGrad, KindEmbeddingGrad,
		KindLossGrad, KindAddN, KindApplyGradient:
		return true
	default:
		return false
	}
}

// ParamStateFactor is the resident bytes per parameter byte: the paper's
// testbed trains with momentum/Adam-style optimizers, so an fp32 weight
// keeps its gradient and two Adam moments beside it. The simulator charges
// it up front on every device; ResidentBytes adds the activations.
const ParamStateFactor = 4

// ResidentBytes returns the bytes the op keeps resident on its device — the
// one memory rule that placement, the scheduler's capacity checks and
// validation share: parameter state, plus forward activations, which stay
// resident until the backward pass consumes them, plus workspace. Backward
// outputs are not charged: they are freed as backprop proceeds, and the
// simulator's runtime accounting (with the session's OOM rollback) covers
// their true transient peaks.
func (o *Op) ResidentBytes() int64 {
	b := ParamStateFactor*o.ParamBytes + o.WorkspaceBytes
	if !IsBackwardKind(o.Kind) {
		b += o.OutputBytes
	}
	return b
}
