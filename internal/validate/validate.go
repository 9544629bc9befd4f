// Package validate checks deployment strategies for structural soundness
// before they are activated: complete placements, honored colocation
// constraints, precedence-consistent execution orders, static memory within
// device capacity, and split lists consistent with the rewritten graph.
// The session and the CLI run these checks on every strategy they activate;
// tests use them as a one-call invariant suite.
package validate

import (
	"errors"
	"fmt"

	"fastt/internal/core"
	"fastt/internal/device"
	"fastt/internal/graph"
)

// Sentinel errors; Strategy wraps them with context.
var (
	ErrPlacementShape  = errors.New("placement shape invalid")
	ErrDeviceRange     = errors.New("device out of range")
	ErrColocation      = errors.New("colocation constraint violated")
	ErrOrderShape      = errors.New("order is not a permutation")
	ErrOrderPrecedence = errors.New("order violates precedence")
	ErrMemory          = errors.New("static memory exceeds device capacity")
	ErrSplitList       = errors.New("split list inconsistent with graph")
)

// Options tunes validation.
type Options struct {
	// SkipMemory bypasses the capacity check against each op's
	// graph.Op.ResidentBytes (e.g. for graphs validated at runtime by the
	// simulator).
	SkipMemory bool
}

// Strategy validates a full strategy against its cluster. It returns the
// first violation found, or nil.
func Strategy(st *core.Strategy, cluster *device.Cluster, opts Options) error {
	if st == nil || st.Graph == nil {
		return fmt.Errorf("%w: nil strategy", ErrPlacementShape)
	}
	if err := Placement(st.Graph, st.Placement, cluster, opts); err != nil {
		return err
	}
	if len(st.Order) > 0 {
		if err := Order(st.Graph, st.Order); err != nil {
			return err
		}
		if len(st.Priorities) != st.Graph.NumOps() {
			return fmt.Errorf("%w: priorities have %d entries for %d ops",
				ErrOrderShape, len(st.Priorities), st.Graph.NumOps())
		}
		for i, id := range st.Order {
			if st.Priorities[id] != i {
				return fmt.Errorf("%w: priority of op %d is %d, order position %d",
					ErrOrderShape, id, st.Priorities[id], i)
			}
		}
	}
	return Splits(st.Graph, st.Splits)
}

// Placement validates that every op has a device within the cluster,
// colocation constraints hold, and (unless skipped) the static per-device
// memory fits capacity.
func Placement(g *graph.Graph, place []int, cluster *device.Cluster, opts Options) error {
	if len(place) != g.NumOps() {
		return fmt.Errorf("%w: %d entries for %d ops", ErrPlacementShape, len(place), g.NumOps())
	}
	for id, d := range place {
		if d < 0 || d >= cluster.NumDevices() {
			return fmt.Errorf("%w: op %q on device %d", ErrDeviceRange, g.Op(id).Name, d)
		}
	}
	for _, op := range g.Ops() {
		if op.ColocateWith == "" {
			continue
		}
		target, ok := g.OpByName(op.ColocateWith)
		if !ok {
			continue // dangling constraint: placer treats as unconstrained
		}
		if place[op.ID] != place[target.ID] {
			return fmt.Errorf("%w: %q on device %d, %q on device %d",
				ErrColocation, op.Name, place[op.ID], target.Name, place[target.ID])
		}
	}
	if opts.SkipMemory {
		return nil
	}
	used := make([]int64, cluster.NumDevices())
	for _, op := range g.Ops() {
		used[place[op.ID]] += op.ResidentBytes()
	}
	for d, u := range used {
		if cap := cluster.Device(d).MemoryBytes; u > cap {
			return fmt.Errorf("%w: device %d needs %d of %d bytes", ErrMemory, d, u, cap)
		}
	}
	return nil
}

// Order validates that order is a permutation of the ops consistent with
// the graph's precedence: every producer precedes its consumers.
func Order(g *graph.Graph, order []int) error {
	if len(order) != g.NumOps() {
		return fmt.Errorf("%w: %d entries for %d ops", ErrOrderShape, len(order), g.NumOps())
	}
	pos := make([]int, g.NumOps())
	seen := make([]bool, g.NumOps())
	for i, id := range order {
		if id < 0 || id >= g.NumOps() || seen[id] {
			return fmt.Errorf("%w: entry %d", ErrOrderShape, id)
		}
		seen[id] = true
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			return fmt.Errorf("%w: %q ordered after its consumer %q",
				ErrOrderPrecedence, g.Op(e.From).Name, g.Op(e.To).Name)
		}
	}
	return nil
}

// Splits validates a split list against the rewritten graph: each split
// operation must be gone, and its sub-operations present with the declared
// partition count.
func Splits(g *graph.Graph, splits []graph.SplitDecision) error {
	for _, s := range splits {
		if s.N < 2 {
			return fmt.Errorf("%w: %s has n=%d", ErrSplitList, s.OpName, s.N)
		}
		if _, ok := g.OpByName(s.OpName); ok {
			return fmt.Errorf("%w: split op %q still present", ErrSplitList, s.OpName)
		}
		subs := 0
		for _, op := range g.Ops() {
			if op.SplitOf != s.OpName {
				continue
			}
			if op.Kind == graph.KindSplit || op.Kind == graph.KindConcat {
				continue
			}
			if op.SplitN != s.N {
				return fmt.Errorf("%w: sub-op %q has SplitN %d, want %d",
					ErrSplitList, op.Name, op.SplitN, s.N)
			}
			subs++
		}
		if subs != s.N {
			return fmt.Errorf("%w: %q has %d sub-ops, want %d", ErrSplitList, s.OpName, subs, s.N)
		}
	}
	return nil
}
