package main

import "testing"

func TestQuantileIsNearestRank(t *testing.T) {
	s := sample{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.2, 1}, {0.5, 3}, {0.9, 5}, {1, 5}} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := (sample{}).quantile(0.5); got != 0 {
		t.Errorf("empty sample quantile = %g, want 0", got)
	}
}

// TestBestQuantileTakesTheLowestBlock pins that a block slowed by a burst
// of outside load does not move the result while another block is calm.
func TestBestQuantileTakesTheLowestBlock(t *testing.T) {
	blocks := []sample{{1, 2, 30}, {10, 20, 40}, {3, 4, 5}}
	if got := bestQuantile(blocks, 0.5); got != 2 {
		t.Errorf("best median = %g, want 2", got)
	}
	if got := bestQuantile(blocks, 0.9); got != 5 {
		t.Errorf("best p90 = %g, want 5", got)
	}
	if got := bestQuantile(nil, 0.5); got != 0 {
		t.Errorf("no blocks = %g, want 0", got)
	}
}

// TestCalmLatency pins both ways latency_ms_* ignore a burst: over groups
// of one kind of operation, a slowed repeat does not count while another
// repeat of its group was calm; over blocks of time, the calmest block
// counts.
func TestCalmLatency(t *testing.T) {
	o := &outcome{
		latency: sample{10, 50, 90, 40, 20, 30},
		group:   []int{0, 1, 0, 1, 2, 2},
	}
	if p50, p90, n := o.calmLatency(); p50 != 20 || p90 != 40 || n != 3 {
		t.Errorf("groups: p50 %g, p90 %g over %d, want 20, 40 over 3", p50, p90, n)
	}
	o.blocks = true
	if p50, p90, n := o.calmLatency(); p50 != 10 || p90 != 30 || n != 3 {
		t.Errorf("blocks: p50 %g, p90 %g over %d, want 10, 30 over 3", p50, p90, n)
	}
}

// TestTailNeedsTenSamplesBeyond pins the reporting rule: the highest
// percentile reported is the highest with at least ten samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		s := make(sample, c.n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		q, v := s.tail()
		if q != c.want {
			t.Errorf("n=%d: tail percentile %g, want %g", c.n, q, c.want)
		}
		if beyond := c.n - int(v); c.want > 0.5 && beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond p%g, want at least %d", c.n, beyond, 100*q, minBeyond)
		}
	}
}

// TestQuartilesMatchPython checks against statistics.quantiles(values,
// n=4), whose cut points the steadiness rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7, 1, 3, 5, 9}, 2, 5, 8},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
	} {
		q1, q2, q3 := quartiles(c.values)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.values, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
