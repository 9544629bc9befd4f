// Package cost implements FastT's adaptive cost models (Sec. 4 of the
// paper): a computation cost model keyed by (operation name, device) and a
// communication cost model that fits a linear regression of transfer time
// against tensor size per source→destination device pair. Both are filled
// online from profiler observations and expose the estimator interface the
// scheduling algorithms consume.
package cost

import (
	"math"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
)

// Estimator predicts operation execution and tensor transfer times. It is
// implemented by the learned Model of this package and by the ground-truth
// kernels.Oracle, so scheduling algorithms can run against either.
type Estimator interface {
	// Exec predicts the run time of op on dev.
	Exec(op *graph.Op, dev *device.Device) time.Duration
	// Comm predicts the transfer time of a tensor of the given size from
	// one device to another. Same-device transfers cost zero.
	Comm(bytes int64, from, to *device.Device) time.Duration
}

// runningStat accumulates mean and variance incrementally (Welford).
type runningStat struct {
	n    int64
	mean float64
	m2   float64
}

func (s *runningStat) add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// meanStat accumulates a mean incrementally: the (n, mean) half of
// runningStat, updated by the same arithmetic so the two means agree bit
// for bit.
type meanStat struct {
	n    int64
	mean float64
}

func (s *meanStat) add(x float64) {
	s.n++
	s.mean += (x - s.mean) / float64(s.n)
}

// merge combines a saved (n, mean) into s, as mergeStat does the mean.
func (s *meanStat) merge(n int64, mean float64) {
	if n == 0 {
		return
	}
	if s.n == 0 {
		s.n, s.mean = n, mean
		return
	}
	total := s.n + n
	s.mean += (mean - s.mean) * float64(n) / float64(total)
	s.n = total
}

func (s *runningStat) variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// cv returns the coefficient of variation (stddev/mean), or 0 for fewer
// than two samples or a zero mean.
func (s *runningStat) cv() float64 {
	if s.n < 2 || s.mean == 0 {
		return 0
	}
	v := s.variance()
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v) / s.mean
}
