package service

import (
	"testing"

	"xlate/internal/telemetry"
)

// The result cache evicts its least recently used entry and reports
// it: the cache's bounds and TTL are keyed.Cache's (tested there), and
// this checks what the service adds — hit, miss and eviction counters
// and the occupancy gauges, with peek leaving the counters alone.
func TestCacheLRUEviction(t *testing.T) {
	m := newMetrics(telemetry.NewRegistry())
	c := newResultCache(2, 0, 0, m)
	c.put("a", []byte("aa"))
	c.put("b", []byte("bbb"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should be cached")
	}
	if _, ok := c.get("missing"); ok {
		t.Fatal("missing key should miss")
	}
	c.put("c", []byte("c")) // evicts b, the LRU entry
	if !c.peek("a") || c.peek("b") {
		t.Fatal("peek: want a cached and b evicted")
	}
	if h, mi, ev := m.cacheHits.Load(), m.cacheMisses.Load(), m.cacheEvictions.Load(); h != 1 || mi != 1 || ev != 1 {
		t.Errorf("hits/misses/evictions = %d/%d/%d, want 1/1/1", h, mi, ev)
	}
	if n, b := m.cacheEntries.Load(), m.cacheBytes.Load(); n != 2 || b != 3 {
		t.Errorf("gauges = %d entries / %d bytes, want 2 / 3", n, b)
	}
	if n, b := c.stats(); n != 2 || b != 3 {
		t.Errorf("stats = %d entries / %d bytes, want 2 / 3", n, b)
	}
}
