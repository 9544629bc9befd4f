package graph

import (
	"errors"
	"fmt"
)

// ErrNoGradient is returned when a parameterized forward op has no backward
// op declaring GradFor it; the data-parallel builder cannot wire gradient
// aggregation for it.
var ErrNoGradient = errors.New("parameterized op has no gradient producer")

// ReplicaPrefix returns the name prefix used for ops of replica r in
// data-parallel graphs.
func ReplicaPrefix(r int) string { return fmt.Sprintf("rep%d/", r) }

// VariableName returns the shared-variable op name for a parameterized
// model op.
func VariableName(opName string) string { return "var/" + opName }

// aggTreeFanout is the flat-aggregation limit: beyond this many replicas,
// gradients aggregate through a two-level AddN tree.
const aggTreeFanout = 4

// BuildDataParallel constructs the data-parallel training graph the paper
// uses as FastT's start strategy (Sec. 5.2), following TensorFlow 1.x
// in-graph replication semantics:
//
//   - the model's compute ops are replicated `replicas` times, each replica
//     processing its own shard of the batch;
//   - every parameterized operation's weights live in a single shared
//     Variable op; each replica's forward and backward ops read the weight
//     tensor from it every iteration (the weight-fetch traffic that makes
//     TF's default data parallelism expensive when the variable lives on a
//     different GPU);
//   - per-replica gradients flow into one AddN aggregation and a single
//     ApplyGradient colocated with the Variable.
//
// The model graph must be built at the desired *per-replica* batch size:
// strong scaling passes batch B/R, weak scaling passes the fixed per-GPU
// batch. With replicas == 1 the result is the plain training graph, so all
// code paths are uniform across GPU counts.
//
// Every backward op producing a parameter gradient must set GradFor to the
// forward op's name; builders in internal/models do this.
func BuildDataParallel(model *Graph, replicas int) (*Graph, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("replicas must be >= 1, got %d", replicas)
	}
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("model graph: %w", err)
	}

	out := New()
	// ids[r][oldID] = new ID of replica r's copy.
	ids := make([][]int, replicas)
	for r := 0; r < replicas; r++ {
		ids[r] = make([]int, model.NumOps())
		prefix := ReplicaPrefix(r)
		for _, op := range model.Ops() {
			c := op.clone()
			c.Name = prefix + op.Name
			c.Replica = r
			// Weights move to the shared Variable; the replica keeps only
			// compute and activations.
			c.ParamBytes = 0
			if c.GradFor != "" {
				c.GradFor = prefix + c.GradFor
			}
			if c.ColocateWith != "" {
				c.ColocateWith = prefix + c.ColocateWith
			}
			id, err := out.AddOp(c)
			if err != nil {
				return nil, fmt.Errorf("replicate op: %w", err)
			}
			ids[r][op.ID] = id
		}
		for _, e := range model.Edges() {
			if err := out.Connect(ids[r][e.From], ids[r][e.To], e.Bytes); err != nil {
				return nil, fmt.Errorf("replicate edge: %w", err)
			}
		}
	}

	// Map forward op -> gradient producer, per the model graph.
	gradOf := make(map[int]int) // forward old ID -> backward old ID
	for _, op := range model.Ops() {
		if op.GradFor == "" {
			continue
		}
		fwd, ok := model.OpByName(op.GradFor)
		if !ok {
			return nil, fmt.Errorf("gradient op %q references unknown forward op %q",
				op.Name, op.GradFor)
		}
		gradOf[fwd.ID] = op.ID
	}

	// Shared variable + gradient synchronization per parameterized op.
	for _, op := range model.Ops() {
		if op.ParamBytes == 0 {
			continue
		}
		gradID, ok := gradOf[op.ID]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoGradient, op.Name)
		}
		v := &Op{
			Name:       VariableName(op.Name),
			Kind:       KindVariable,
			ParamBytes: op.ParamBytes,
			Replica:    -1,
		}
		varID, err := out.AddOp(v)
		if err != nil {
			return nil, fmt.Errorf("add variable: %w", err)
		}
		// Every replica fetches the weight tensor for forward and backward.
		for r := 0; r < replicas; r++ {
			if err := out.Connect(varID, ids[r][op.ID], op.ParamBytes); err != nil {
				return nil, fmt.Errorf("connect variable to forward: %w", err)
			}
			if err := out.Connect(varID, ids[r][gradID], op.ParamBytes); err != nil {
				return nil, fmt.Errorf("connect variable to backward: %w", err)
			}
		}

		// Gradient aggregation. Beyond aggTreeFanout replicas a two-level
		// tree is used: a leaf AddN per group of replicas (colocated with
		// the group's first replica) feeding the root AddN at the
		// variable. A flat 16-way AddN would require all remote gradient
		// tensors to be resident on the variable's device at once, which
		// is exactly how real in-graph aggregation runs out of memory.
		grads := make([]int, replicas)
		gradBytes := make([]int64, replicas)
		for r := 0; r < replicas; r++ {
			grads[r] = ids[r][gradID]
			gradBytes[r] = op.ParamBytes
		}
		if replicas > aggTreeFanout {
			var leaves []int
			for lo := 0; lo < replicas; lo += aggTreeFanout {
				hi := lo + aggTreeFanout
				if hi > replicas {
					hi = replicas
				}
				leaf := &Op{
					Name:         fmt.Sprintf("sync/%s/addn_g%d", op.Name, lo/aggTreeFanout),
					Kind:         KindAddN,
					FLOPs:        int64(hi-lo) * op.ParamBytes / 4,
					OutputBytes:  op.ParamBytes,
					Replica:      -1,
					ColocateWith: ReplicaPrefix(lo) + op.Name,
				}
				leafID, err := out.AddOp(leaf)
				if err != nil {
					return nil, fmt.Errorf("add leaf aggregation: %w", err)
				}
				for r := lo; r < hi; r++ {
					if err := out.Connect(grads[r], leafID, op.ParamBytes); err != nil {
						return nil, fmt.Errorf("connect gradient to leaf: %w", err)
					}
				}
				leaves = append(leaves, leafID)
			}
			grads = leaves
			gradBytes = gradBytes[:len(leaves)]
			for i := range gradBytes {
				gradBytes[i] = op.ParamBytes
			}
		}
		agg := &Op{
			Name:         "sync/" + op.Name + "/addn",
			Kind:         KindAddN,
			FLOPs:        int64(len(grads)) * op.ParamBytes / 4,
			OutputBytes:  op.ParamBytes,
			Replica:      -1,
			ColocateWith: v.Name,
		}
		aggID, err := out.AddOp(agg)
		if err != nil {
			return nil, fmt.Errorf("add aggregation op: %w", err)
		}
		for i, gid := range grads {
			if err := out.Connect(gid, aggID, gradBytes[i]); err != nil {
				return nil, fmt.Errorf("connect gradient to aggregation: %w", err)
			}
		}
		apply := &Op{
			Name:         "sync/" + op.Name + "/apply",
			Kind:         KindApplyGradient,
			FLOPs:        op.ParamBytes,
			Replica:      -1,
			ColocateWith: v.Name,
		}
		applyID, err := out.AddOp(apply)
		if err != nil {
			return nil, fmt.Errorf("add apply op: %w", err)
		}
		if err := out.Connect(aggID, applyID, op.ParamBytes); err != nil {
			return nil, fmt.Errorf("connect aggregation to apply: %w", err)
		}
	}

	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("data-parallel graph: %w", err)
	}
	return out, nil
}
