package service

import (
	"sync"
	"time"

	"xlate/internal/keyed"
)

// resultCache is the content-addressed result store: key → the exact
// payload bytes the job rendered. Because keys are canonical cell (or
// experiment) identities, a hit returns bytes that are identical to
// what re-running the job would produce — the cache is exact, not
// approximate. It is a keyed.Cache (LRU bounded by entry count and
// payload bytes, optional TTL) that reports its hits, misses,
// evictions and occupancy to the service metrics.
type resultCache struct {
	c *keyed.Cache[string, []byte]
	m *metrics

	// gaugeMu orders occupancy reads with their gauge writes, so the
	// last write is always the latest occupancy.
	gaugeMu sync.Mutex
}

func newResultCache(maxN int, maxBytes int64, ttl time.Duration, m *metrics) *resultCache {
	if maxN <= 0 {
		maxN = 256
	}
	evicted := func(string, []byte) { m.cacheEvictions.Inc() }
	return &resultCache{c: keyed.New(maxN, maxBytes, ttl, evicted), m: m}
}

// get returns the cached payload and records a hit or miss.
func (c *resultCache) get(key string) ([]byte, bool) {
	payload, ok := c.c.Get(key)
	if ok {
		c.m.cacheHits.Inc()
	} else {
		c.m.cacheMisses.Inc()
	}
	c.updateGauges()
	return payload, ok
}

// peek is get without hit/miss accounting or a recency bump — for
// presence checks that should not skew the hit ratio (e.g. the status
// snapshot).
func (c *resultCache) peek(key string) bool {
	_, ok := c.c.Peek(key)
	c.updateGauges()
	return ok
}

// put stores a payload. Same key means same bytes by construction, so
// a repeat put only refreshes the entry.
func (c *resultCache) put(key string, payload []byte) {
	c.c.Put(key, payload, int64(len(payload)))
	c.updateGauges()
}

func (c *resultCache) updateGauges() {
	c.gaugeMu.Lock()
	defer c.gaugeMu.Unlock()
	n, bytes := c.c.Stats()
	c.m.cacheEntries.Set(int64(n))
	c.m.cacheBytes.Set(bytes)
}

// stats snapshots the cache occupancy for /status.
func (c *resultCache) stats() (entries int, bytes int64) { return c.c.Stats() }
