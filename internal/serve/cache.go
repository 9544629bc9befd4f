package serve

import (
	"container/list"
	"sync"

	"fastt/internal/strategy"
)

// entry is one cached artifact: its compact JSON encoding (the bytes every
// response carries verbatim, so hits are byte-identical to the cold
// response) and its accounted size.
type entry struct {
	key   strategy.CacheKey
	bytes []byte
	size  int64
}

// shard is one lock domain of the cache: an LRU list with a byte budget.
// Entries are strategy artifacts — a few KB each — so per-shard state is a
// plain mutex-guarded map + intrusive list; at 16 shards the lock is
// uncontended even under BenchmarkServeWarmHit's full concurrency.
type shard struct {
	mu     sync.Mutex
	budget int64
	used   int64
	items  map[strategy.CacheKey]*list.Element
	lru    *list.List // front = most recently used; values are *entry
}

// cache is the sharded artifact store. The shard index is the key's FNV-1a
// hash modulo the shard count, so the three key coordinates (fingerprint,
// cluster shape, cost hash) all contribute to spreading.
type cache struct {
	shards  []*shard
	metrics *metrics
}

func newCache(totalBytes int64, shards int, m *metrics) *cache {
	c := &cache{shards: make([]*shard, shards), metrics: m}
	per := totalBytes / int64(shards)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			budget: per,
			items:  make(map[strategy.CacheKey]*list.Element),
			lru:    list.New(),
		}
	}
	return c
}

func (c *cache) shardFor(key strategy.CacheKey) *shard {
	return c.shards[key.Hash64()%uint64(len(c.shards))]
}

// get returns the cached bytes for key, promoting the entry to most
// recently used, or nil on a miss. Callers must not mutate the returned
// slice; it is shared by every response for the key.
func (c *cache) get(key strategy.CacheKey) []byte {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil
	}
	s.lru.MoveToFront(el)
	return el.Value.(*entry).bytes
}

// put inserts (or replaces) the artifact bytes for key and evicts from the
// cold end until the shard is back under budget. An artifact larger than a
// whole shard's budget is not cached at all: admitting it would evict
// everything and still overrun.
func (c *cache) put(key strategy.CacheKey, bytes []byte, size int64) {
	s := c.shardFor(key)
	if size > s.budget {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		old := el.Value.(*entry)
		s.used += size - old.size
		old.bytes, old.size = bytes, size
		s.lru.MoveToFront(el)
	} else {
		s.items[key] = s.lru.PushFront(&entry{key: key, bytes: bytes, size: size})
		s.used += size
	}
	for s.used > s.budget {
		el := s.lru.Back()
		if el == nil {
			break
		}
		e := el.Value.(*entry)
		s.lru.Remove(el)
		delete(s.items, e.key)
		s.used -= e.size
		c.metrics.evictions.Add(1)
	}
}

// usage totals entry and byte counts across shards.
func (c *cache) usage() (entries, bytes int64) {
	for _, s := range c.shards {
		s.mu.Lock()
		entries += int64(s.lru.Len())
		bytes += s.used
		s.mu.Unlock()
	}
	return entries, bytes
}

// budget is the total byte budget across shards.
func (c *cache) budget() int64 {
	var total int64
	for _, s := range c.shards {
		total += s.budget
	}
	return total
}
