package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a tail with fewer samples past it measures noise.
const minBeyond = 10

// sample holds measurements of one quantity.
type sample []float64

// quantile returns the nearest-rank q-quantile (0 < q <= 1), or 0 for an
// empty sample.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(sample(nil), s...)
	sort.Float64s(sorted)
	return sorted[max(rank(q, len(s)), 1)-1]
}

// bestQuantile returns the lowest q-quantile among blocks, or 0 when there
// are none.
func bestQuantile(blocks []sample, q float64) float64 {
	if len(blocks) == 0 {
		return 0
	}
	best := math.Inf(1)
	for _, b := range blocks {
		best = min(best, b.quantile(q))
	}
	return best
}

// groupBest returns the lowest value of each group; group[i] is the group
// of s[i].
func groupBest(s sample, group []int) sample {
	best := map[int]float64{}
	for i, v := range s {
		if b, ok := best[group[i]]; !ok || v < b {
			best[group[i]] = v
		}
	}
	out := make(sample, 0, len(best))
	for _, v := range best {
		out = append(out, v)
	}
	return out
}

// calmLatency returns latency_ms_p50 and latency_ms_p90 and how many groups
// they come from. The host the benchmark runs on is shared, and load from
// outside it comes in bursts that slow every operation they overlap, so
// neither is a quantile of the whole window. Over blocks of time they are the
// lowest quantiles among the blocks: those of a block a burst left alone, if
// any did. Over groups of one kind of operation they are quantiles of each
// group's fastest operation, which a burst slows only if it covers every
// repeat of the group.
func (o *outcome) calmLatency() (p50, p90 float64, groups int) {
	if !o.blocks {
		best := groupBest(o.latency, o.group)
		return best.quantile(0.5), best.quantile(0.9), len(best)
	}
	var blocks []sample
	for i, v := range o.latency {
		for len(blocks) <= o.group[i] {
			blocks = append(blocks, nil)
		}
		blocks[o.group[i]] = append(blocks[o.group[i]], v)
	}
	blocks = slices.DeleteFunc(blocks, func(b sample) bool { return len(b) == 0 })
	return bestQuantile(blocks, 0.5), bestQuantile(blocks, 0.9), len(blocks)
}

// rank is the 1-based nearest rank of the q-quantile of n samples. The
// tolerance keeps products like 0.9*100 from rounding up a rank.
func rank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// supports reports whether at least minBeyond samples lie beyond the
// q-quantile.
func (s sample) supports(q float64) bool {
	return len(s)-rank(q, len(s)) >= minBeyond
}

// tail returns the highest of the 99.9th, 99th and 90th percentiles that s
// supports, falling back to the median, as the quantile and its value.
func (s sample) tail() (q, v float64) {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if s.supports(q) {
			return q, s.quantile(q)
		}
	}
	return 0.5, s.quantile(0.5)
}

func (s sample) sum() float64 {
	var total float64
	for _, v := range s {
		total += v
	}
	return total
}

func (s sample) mean() float64 { return ratio(s.sum(), float64(len(s))) }

// geomean returns the geometric mean of positive values, or 0 for an empty
// sample.
func (s sample) geomean() float64 {
	if len(s) == 0 {
		return 0
	}
	var logs float64
	for _, v := range s {
		logs += math.Log(v)
	}
	return math.Exp(logs / float64(len(s)))
}

// quartiles returns the three cut points of values by the method of
// Python's statistics.quantiles(values, n=4), the default "exclusive" one,
// in which the benchmark's steadiness rule is stated.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapWatch samples the live Go heap, as marked by the last collection,
// every few milliseconds and keeps the peak. Live bytes, not allocated ones:
// the allocated heap swings with the collector's timing, the live heap with
// what the program holds.
type heapWatch struct {
	stop, done chan struct{}
	peak       uint64
}

// watchHeap starts sampling; poll, when not nil, runs at every sample too.
func watchHeap(poll func()) *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			if poll != nil {
				poll()
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak in MiB.
func (h *heapWatch) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
