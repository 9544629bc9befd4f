package cost

import (
	"math"
	"sort"
	"sync"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/runtime"
)

// compKey identifies a computation cost entry: the paper keys the model on
// "the operation's name and device".
type compKey struct {
	name string
	dev  int
}

// classKey identifies a per-device-class aggregate: observations pooled
// across all devices of one class, so a profile learned on one V100
// transfers to every other V100 — including one that joins the cluster
// later.
type classKey struct {
	name  string
	class string
}

// splitExponent controls the sublinear split-scaling fallback: a 1/n
// partition is estimated at parent * n^-splitExponent.
const splitExponent = 0.85

// classLayout is the device-class layout of the cluster a CompModel was
// built for. It never changes after construction, so every snapshot shares
// the model's.
type classLayout struct {
	// devClass maps device ID -> class name.
	devClass []string
	// classFLOPS maps class name -> peak FLOPS and classNames lists the
	// cluster's classes sorted, fixing the probe order of the cross-class
	// scaled fallback.
	classFLOPS map[string]float64
	classNames []string
}

// classOf returns the class label of a device ID, or "" for a device the
// cluster did not have.
func (l *classLayout) classOf(dev int) string {
	if dev < 0 || dev >= len(l.devClass) {
		return ""
	}
	return l.devClass[dev]
}

// CompModel is the computation cost model. It records observed execution
// times per (operation name, device) and answers lookups for the scheduler.
// Missing entries read as zero, which — per the paper — biases the
// scheduler toward exploring unprofiled placements so the profiler can fill
// them in on subsequent steps.
//
// Predictions come from a frozen CompSnapshot (see CompSnapshot.Exec for
// the fallback ladder). The model memoises its snapshot until the next
// write, so repeated reads of an unchanged model freeze it once.
//
// CompModel is safe for concurrent use.
type CompModel struct {
	mu    sync.RWMutex
	stats map[compKey]*runningStat
	// byName and byClass pool observations across all devices and across
	// same-class devices. They keep only (n, mean): predictions read their
	// means and nothing reads their spread.
	byName  map[string]*meanStat
	byClass map[classKey]*meanStat
	classLayout
	// snap memoises Snapshot; every write clears it under the write lock.
	snap *CompSnapshot
	// spans caches the statistics of the last observed graph's keys for
	// observeSpans.
	spans spanCache
}

// NewCompModelFor returns an empty computation cost model keyed to the
// cluster's device classes.
func NewCompModelFor(cluster *device.Cluster) *CompModel {
	m := &CompModel{
		stats:   make(map[compKey]*runningStat),
		byName:  make(map[string]*meanStat),
		byClass: make(map[classKey]*meanStat),
		classLayout: classLayout{
			devClass:   make([]string, cluster.NumDevices()),
			classFLOPS: make(map[string]float64),
		},
	}
	for _, d := range cluster.Devices() {
		m.devClass[d.ID] = d.ClassName()
		if _, ok := m.classFLOPS[d.ClassName()]; !ok {
			m.classFLOPS[d.ClassName()] = d.PeakFLOPS
			m.classNames = append(m.classNames, d.ClassName())
		}
	}
	sort.Strings(m.classNames)
	return m
}

// entry returns m[k], creating it on first use.
func entry[K comparable, V any](m map[K]*V, k K) *V {
	v, ok := m[k]
	if !ok {
		v = new(V)
		m[k] = v
	}
	return v
}

// keyStats is one (op name, device) key's statistics: exact, same-class and
// any-device. Every observation, load and remap updates all three.
type keyStats struct {
	exact *runningStat
	class *meanStat // nil for a device outside the model's cluster
	name  *meanStat
}

// add records one observation x.
func (st keyStats) add(x float64) {
	st.exact.add(x)
	if st.class != nil {
		st.class.add(x)
	}
	st.name.add(x)
}

// merge folds saved statistics (n, mean, m2) into all three.
func (st keyStats) merge(n int64, mean, m2 float64) {
	mergeStat(st.exact, n, mean, m2)
	if st.class != nil {
		st.class.merge(n, mean)
	}
	st.name.merge(n, mean)
}

// statsOf returns the statistics of the named op on dev, creating each on
// first use. The caller holds the write lock, and drops the memoised
// snapshot once it has written through them.
func (m *CompModel) statsOf(name string, dev int) keyStats {
	st := keyStats{
		exact: entry(m.stats, compKey{name: name, dev: dev}),
		name:  entry(m.byName, name),
	}
	if class := m.classOf(dev); class != "" {
		st.class = entry(m.byClass, classKey{name: name, class: class})
	}
	return st
}

// Observe records an execution of the named op on device dev.
func (m *CompModel) Observe(name string, dev int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.statsOf(name, dev).add(float64(d))
	m.snap = nil
}

// spanCache resolves the (op, device) keys of one graph's spans to their
// statistics, so a profiled iteration hashes each key once per graph
// version instead of once per span. It holds the graph, so the address it
// is keyed on cannot be recycled for another graph while the entry lives.
type spanCache struct {
	g       *graph.Graph
	version uint64
	// ops maps op ID -> the statistics of the device the op was last
	// observed on; exact is nil until the op's first observation.
	ops []cachedStats
}

type cachedStats struct {
	dev int
	keyStats
}

// observeSpans records one iteration's executions of g's ops, in span
// order, under one lock and one snapshot drop. Each key's statistics see
// the same updates in the same order as a per-span Observe.
func (m *CompModel) observeSpans(g *graph.Graph, spans []runtime.Span) {
	if len(spans) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &m.spans
	if c.g != g || c.version != g.Version() {
		*c = spanCache{g: g, version: g.Version(), ops: make([]cachedStats, g.NumOps())}
	}
	for _, sp := range spans {
		e := &c.ops[sp.Op]
		if e.exact == nil || e.dev != sp.Device {
			*e = cachedStats{dev: sp.Device, keyStats: m.statsOf(g.Op(sp.Op).Name, sp.Device)}
		}
		e.add(float64(sp.End - sp.Start))
	}
	m.snap = nil
}

// Lookup returns the mean observed time for (name, dev) and whether any
// observation exists for that exact key.
func (m *CompModel) Lookup(name string, dev int) (time.Duration, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.stats[compKey{name: name, dev: dev}]
	if !ok {
		return 0, false
	}
	return time.Duration(s.mean), true
}

// CompSnapshot is an immutable view of a CompModel: the per-(name, device),
// per-(name, class) and per-name means frozen at snapshot time. Worker
// goroutines of the parallel strategy calculator read it lock-free while
// concurrent Observe calls keep mutating the live model.
type CompSnapshot struct {
	exact   map[compKey]time.Duration
	byClass map[classKey]time.Duration
	byName  map[string]time.Duration
	classLayout
}

// Snapshot returns the model's current means frozen, memoised until the
// next write.
func (m *CompModel) Snapshot() *CompSnapshot {
	m.mu.RLock()
	s := m.snap
	m.mu.RUnlock()
	if s != nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snap == nil {
		m.snap = m.freeze()
	}
	return m.snap
}

// freeze copies the current means into a new snapshot. The caller holds
// the lock.
func (m *CompModel) freeze() *CompSnapshot {
	s := &CompSnapshot{
		exact:       make(map[compKey]time.Duration, len(m.stats)),
		byClass:     make(map[classKey]time.Duration, len(m.byClass)),
		byName:      make(map[string]time.Duration, len(m.byName)),
		classLayout: m.classLayout,
	}
	for k, st := range m.stats {
		s.exact[k] = time.Duration(st.mean)
	}
	for k, st := range m.byClass {
		s.byClass[k] = time.Duration(st.mean)
	}
	for name, st := range m.byName {
		s.byName[name] = time.Duration(st.mean)
	}
	return s
}

// Exec predicts the run time of op on dev from the frozen means, down a
// fallback ladder that keeps the white-box heuristics effective before
// full coverage:
//
//   - exact: the mean observed for (op, dev);
//   - same-class: a time observed on any device of the same class
//     approximates the time on all of them (a profile transfers across
//     V100s but not from a V100 to a T4);
//   - cross-class scaled: absent same-class data, a time observed on another
//     class scaled by the peak-throughput ratio — a T4 runs a V100-profiled
//     op roughly peakV100/peakT4 slower. This is what lets the scheduler
//     exploit a freshly joined faster device before it has been profiled.
//     On single-class clusters the tier never fires;
//   - any-device: a time observed on any device at all, unscaled; it
//     answers for a device the model's cluster did not have;
//   - split scaling: a sub-operation produced by SplitOperation is
//     estimated from its parent's time, found by the same class,
//     cross-class and any-device rungs, scaled sublinearly (small kernels
//     run at lower utilization, so 1/n of the work takes more than 1/n of
//     the time);
//   - zero: nothing observed, so the scheduler explores the placement.
func (s *CompSnapshot) Exec(op *graph.Op, dev *device.Device) time.Duration {
	if t, ok := s.exact[compKey{name: op.Name, dev: dev.ID}]; ok {
		return t
	}
	class := s.classOf(dev.ID)
	if class != "" {
		if t, ok := s.byClass[classKey{name: op.Name, class: class}]; ok {
			return t
		}
		if t, ok := s.crossClass(op.Name, class, 1); ok {
			return t
		}
	}
	if t, ok := s.byName[op.Name]; ok {
		return t
	}
	if op.SplitOf != "" && op.SplitN > 1 {
		scale := math.Pow(float64(op.SplitN), -splitExponent)
		if class != "" {
			if t, ok := s.byClass[classKey{name: op.SplitOf, class: class}]; ok {
				return time.Duration(float64(t) * scale)
			}
			if t, ok := s.crossClass(op.SplitOf, class, scale); ok {
				return t
			}
		}
		if t, ok := s.byName[op.SplitOf]; ok {
			return time.Duration(float64(t) * scale)
		}
	}
	return 0
}

// crossClass estimates op name on a device of class from another class's
// pooled mean, scaled by scale and the peak-throughput ratio. Classes are
// probed in sorted-name order so the estimate is deterministic when several
// have data. Single-class clusters never reach here with a hit.
func (s *CompSnapshot) crossClass(name, class string, scale float64) (time.Duration, bool) {
	own := s.classFLOPS[class]
	if own <= 0 {
		return 0, false
	}
	for _, other := range s.classNames {
		if other == class {
			continue
		}
		t, ok := s.byClass[classKey{name: name, class: other}]
		if !ok {
			continue
		}
		if ref := s.classFLOPS[other]; ref > 0 {
			return time.Duration(float64(t) * scale * ref / own), true
		}
	}
	return 0, false
}

// Coverage returns the fraction of the graph's ops that have at least one
// observation on any device.
func (m *CompModel) Coverage(g *graph.Graph) float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if g.NumOps() == 0 {
		return 1
	}
	covered := 0
	for _, op := range g.Ops() {
		if _, ok := m.byName[op.Name]; ok {
			covered++
		}
	}
	return float64(covered) / float64(g.NumOps())
}

// Stable reports whether the model has converged: every key with at least
// minSamples observations has a coefficient of variation below maxCV. This
// is the paper's pre-training termination condition ("the average time of
// the same (sub-)operation(s) on the same device(s) does not vary much").
func (m *CompModel) Stable(minSamples int64, maxCV float64) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.stats) == 0 {
		return false
	}
	for _, s := range m.stats {
		if s.n < minSamples {
			return false
		}
		if s.cv() > maxCV {
			return false
		}
	}
	return true
}

// NumEntries returns the number of (op, device) keys with observations.
func (m *CompModel) NumEntries() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.stats)
}
