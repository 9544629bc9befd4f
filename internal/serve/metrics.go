package serve

import (
	"sync/atomic"
	"time"
)

// numLatencyBounds is the bucket-bound count; the histogram carries one
// extra overflow bucket.
const numLatencyBounds = 13

// latencyBounds are the fixed upper bounds of the search-latency histogram
// buckets. A cold catalog search lands around 30ms and a trivial graph under
// 1ms, so the range spans 500µs to 5s with a final overflow bucket.
var latencyBounds = [numLatencyBounds]time.Duration{
	500 * time.Microsecond,
	1 * time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	20 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	200 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2 * time.Second,
	5 * time.Second,
}

// metrics is the service's single source of truth for observability: every
// counter the HTTP stats endpoint and the tests consume lives
// here, updated with atomics on the hot path (no locks, no allocation).
type metrics struct {
	hits      atomic.Int64 // requests answered from the cache
	misses    atomic.Int64 // requests that found no cached artifact (leaders and joiners both)
	coalesced atomic.Int64 // misses that joined an already-running search

	searches     atomic.Int64 // OS-DPOS searches started
	searchErrors atomic.Int64 // searches that returned an error (incl. timeout)
	evictions    atomic.Int64 // cache entries evicted by the byte budget
	rejected     atomic.Int64 // requests bounced with ErrQueueFull

	seeded  atomic.Int64 // searches warm-started from a client seed
	seedWon atomic.Int64 // seeded searches where nothing beat the seed

	queueDepth atomic.Int64 // searches currently waiting for an admission slot

	latency [numLatencyBounds + 1]atomic.Int64
}

// observeSearch records one completed search's wall time.
func (m *metrics) observeSearch(d time.Duration) {
	for i, b := range latencyBounds {
		if d <= b {
			m.latency[i].Add(1)
			return
		}
	}
	m.latency[len(latencyBounds)].Add(1)
}

// CacheStats is the cache section of a stats snapshot.
type CacheStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	Entries     int64 `json:"entries"`
	Bytes       int64 `json:"bytes"`
	BudgetBytes int64 `json:"budgetBytes"`
	Shards      int   `json:"shards"`
}

// Stats is a point-in-time snapshot of the service counters, served as JSON
// by GET /v1/stats.
type Stats struct {
	Cache        CacheStats `json:"cache"`
	Coalesced    int64      `json:"coalesced"`
	Searches     int64      `json:"searches"`
	SearchErrors int64      `json:"searchErrors"`
	// Seeded counts searches warm-started from an explicit client seed
	// (the service never picks a seed itself); SeedWon counts the subset
	// where no candidate beat the seed and the response is the
	// re-materialized seed strategy.
	Seeded      int64 `json:"seeded"`
	SeedWon     int64 `json:"seedWon"`
	Rejected    int64 `json:"rejected"`
	QueueDepth  int64 `json:"queueDepth"`
	MaxQueue    int   `json:"maxQueue"`
	MaxSearches int   `json:"maxSearches"`
	// LatencyBoundsNs[i] is the inclusive upper bound of LatencyCounts[i];
	// the final count is the overflow bucket and has no bound.
	LatencyBoundsNs []int64 `json:"searchLatencyBoundsNs"`
	LatencyCounts   []int64 `json:"searchLatencyCounts"`
}

// Stats snapshots the service counters. Counters are read individually
// without a global lock, so a snapshot taken mid-request may be off by a
// request on any one axis; each counter is itself exact.
func (s *Service) Stats() Stats {
	entries, bytes := s.cache.usage()
	st := Stats{
		Cache: CacheStats{
			Hits:        s.metrics.hits.Load(),
			Misses:      s.metrics.misses.Load(),
			Evictions:   s.metrics.evictions.Load(),
			Entries:     entries,
			Bytes:       bytes,
			BudgetBytes: s.cache.budget(),
			Shards:      len(s.cache.shards),
		},
		Coalesced:       s.metrics.coalesced.Load(),
		Searches:        s.metrics.searches.Load(),
		SearchErrors:    s.metrics.searchErrors.Load(),
		Seeded:          s.metrics.seeded.Load(),
		SeedWon:         s.metrics.seedWon.Load(),
		Rejected:        s.metrics.rejected.Load(),
		QueueDepth:      s.metrics.queueDepth.Load(),
		MaxQueue:        s.maxQueue,
		MaxSearches:     cap(s.sem),
		LatencyBoundsNs: make([]int64, len(latencyBounds)),
		LatencyCounts:   make([]int64, len(latencyBounds)+1),
	}
	for i, b := range latencyBounds {
		st.LatencyBoundsNs[i] = int64(b)
	}
	for i := range s.metrics.latency {
		st.LatencyCounts[i] = s.metrics.latency[i].Load()
	}
	return st
}
