package cost

import (
	"sync"
	"time"

	"fastt/internal/device"
)

// LinearModel is a fitted tensor-size → transfer-time line: predicted
// seconds = Intercept + Slope * bytes. The intercept captures link latency
// and the slope the inverse bandwidth, including "available bandwidth and
// potential congestion along each device-device path" (Sec. 4).
type LinearModel struct {
	Intercept float64 // seconds
	Slope     float64 // seconds per byte
	N         int64   // observations behind the fit
}

// Predict returns the predicted transfer time for a tensor of the given
// size, clamped at zero.
func (l LinearModel) Predict(bytes int64) time.Duration {
	sec := l.Intercept + l.Slope*float64(bytes)
	if sec < 0 {
		sec = 0
	}
	return time.Duration(sec * float64(time.Second))
}

// olsAccumulator incrementally accumulates the sums needed for ordinary
// least squares on (bytes, seconds) pairs.
type olsAccumulator struct {
	n            int64
	sumX, sumY   float64
	sumXX, sumXY float64
	minX, maxX   float64
}

// sample returns the accumulator of the one pair (x, y).
func sample(x, y float64) olsAccumulator {
	return olsAccumulator{n: 1, sumX: x, sumY: y, sumXX: x * x, sumXY: x * y, minX: x, maxX: x}
}

// merge folds b's sums into a. It is exact for everything the fit reads,
// and merging a sample adds its pair bit for bit.
func (a *olsAccumulator) merge(b *olsAccumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		a.minX, a.maxX = b.minX, b.maxX
	} else {
		if b.minX < a.minX {
			a.minX = b.minX
		}
		if b.maxX > a.maxX {
			a.maxX = b.maxX
		}
	}
	a.n += b.n
	a.sumX += b.sumX
	a.sumY += b.sumY
	a.sumXX += b.sumXX
	a.sumXY += b.sumXY
}

// fit solves the normal equations. With fewer than two distinct sizes the
// line degenerates to proportional scaling through the observed mean.
func (a *olsAccumulator) fit() LinearModel {
	if a.n == 0 {
		return LinearModel{}
	}
	nf := float64(a.n)
	if a.maxX == a.minX {
		// One distinct size: assume a zero intercept and scale by bytes.
		slope := 0.0
		if a.sumX > 0 {
			slope = a.sumY / a.sumX
		}
		return LinearModel{Slope: slope, N: a.n}
	}
	den := nf*a.sumXX - a.sumX*a.sumX
	slope := (nf*a.sumXY - a.sumX*a.sumY) / den
	intercept := (a.sumY - slope*a.sumX) / nf
	if slope < 0 {
		// Bandwidth cannot be negative; fall back to proportional.
		slope = a.sumY / a.sumX
		intercept = 0
	}
	return LinearModel{Intercept: intercept, Slope: slope, N: a.n}
}

// pairKey identifies an ordered source→destination device pair — the
// paper gathers "tensors across the same source-destination device pairs
// into one group" and fits one linear model per group.
type pairKey struct{ from, to int }

// Link classes for the fallback tier, mirroring the cluster's link tiers.
const (
	linkClassIntraServer = 0 // same server (NVLink or PCIe)
	linkClassSameRack    = 1 // cross server, same rack
	linkClassCrossRack   = 2 // cross rack
	numLinkClasses       = 3
)

// CommModel is the communication cost model: one online least-squares line
// per ordered device pair, with a link-class (intra-server / same-rack /
// cross-rack) fallback for pairs that have not carried traffic yet. Unknown
// classes read as zero so the scheduler explores them, per the paper.
// Predictions come from a frozen CommSnapshot, memoised until the next
// write. CommModel is safe for concurrent use.
type CommModel struct {
	mu      sync.RWMutex
	cluster *device.Cluster
	pairs   map[pairKey]*olsAccumulator
	classes [numLinkClasses]olsAccumulator
	// snap memoises Snapshot; every write clears it under the write lock.
	snap *CommSnapshot
}

// NewCommModel returns an empty communication model for the cluster.
func NewCommModel(cluster *device.Cluster) *CommModel {
	return &CommModel{
		cluster: cluster,
		pairs:   make(map[pairKey]*olsAccumulator),
	}
}

func linkClassOf(cluster *device.Cluster, from, to int) int {
	a, b := cluster.Device(from), cluster.Device(to)
	switch {
	case a.Server == b.Server:
		return linkClassIntraServer
	case a.Rack == b.Rack:
		return linkClassSameRack
	default:
		return linkClassCrossRack
	}
}

// fold merges acc into the accumulators of the pair from->to and of its
// link class, creating the pair's on first use, and drops the memoised
// snapshot. Observations, loads and remaps all write through it. The
// caller holds the write lock.
func (m *CommModel) fold(from, to int, acc *olsAccumulator) {
	entry(m.pairs, pairKey{from: from, to: to}).merge(acc)
	m.classes[linkClassOf(m.cluster, from, to)].merge(acc)
	m.snap = nil
}

// Observe records a transfer of `bytes` from one device to another taking
// d. Same-device observations are ignored.
func (m *CommModel) Observe(from, to int, bytes int64, d time.Duration) {
	if from == to {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	one := sample(float64(bytes), float64(d)/float64(time.Second))
	m.fold(from, to, &one)
}

// CommSnapshot is an immutable view of a CommModel: every per-pair and
// class-fallback line fitted once at snapshot time. Worker goroutines of the
// parallel strategy calculator read it lock-free while concurrent Observe
// calls keep mutating the live model, and it answers Comm without re-solving
// the normal equations per query.
type CommSnapshot struct {
	cluster *device.Cluster
	pairs   map[pairKey]LinearModel
	classes [numLinkClasses]LinearModel
}

// Snapshot returns the model's current state fitted and frozen, memoised
// until the next write.
func (m *CommModel) Snapshot() *CommSnapshot {
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

// freeze fits every accumulator into a new snapshot. The caller holds the
// lock.
func (m *CommModel) freeze() *CommSnapshot {
	s := &CommSnapshot{
		cluster: m.cluster,
		pairs:   make(map[pairKey]LinearModel, len(m.pairs)),
	}
	for k, acc := range m.pairs {
		if acc.n > 0 {
			s.pairs[k] = acc.fit()
		}
	}
	for i := range m.classes {
		s.classes[i] = m.classes[i].fit()
	}
	return s
}

// Comm predicts the transfer time from the frozen fits: the per-pair line,
// then the link-class fallback, then zero (explore). Same-device transfers
// cost zero.
func (s *CommSnapshot) Comm(bytes int64, from, to *device.Device) time.Duration {
	if from.ID == to.ID {
		return 0
	}
	if l, ok := s.pairs[pairKey{from: from.ID, to: to.ID}]; ok {
		return l.Predict(bytes)
	}
	if l := s.classes[linkClassOf(s.cluster, from.ID, to.ID)]; l.N > 0 {
		return l.Predict(bytes)
	}
	return 0
}

// Pair returns the fitted line for a specific device pair, if any traffic
// has been observed on it.
func (m *CommModel) Pair(from, to int) (LinearModel, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	acc, ok := m.pairs[pairKey{from: from, to: to}]
	if !ok || acc.n == 0 {
		return LinearModel{}, false
	}
	return acc.fit(), true
}

// NumPairs returns the number of device pairs with observed traffic.
func (m *CommModel) NumPairs() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pairs)
}
