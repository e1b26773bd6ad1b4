package keyed

import (
	"slices"
	"testing"
	"time"
)

// evictLog is an eviction hook that records the keys it sees.
type evictLog struct{ keys []string }

func (l *evictLog) hook(k string, _ []byte) { l.keys = append(l.keys, k) }

func has[V any](c *Cache[string, V], key string) bool {
	_, ok := c.Peek(key)
	return ok
}

func TestCacheCountBoundEvictsLRU(t *testing.T) {
	var ev evictLog
	c := New(2, 0, 0, ev.hook)
	c.Put("a", []byte("aa"), 2)
	c.Put("b", []byte("bb"), 2)
	// Touch a so b becomes the least recently used.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should be cached")
	}
	c.Put("c", []byte("cc"), 2)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a was recently used and should survive")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c was just inserted and should survive")
	}
	if n, cost := c.Stats(); n != 2 || cost != 4 {
		t.Errorf("stats = %d entries / %d cost, want 2 / 4", n, cost)
	}
	if !slices.Equal(ev.keys, []string{"b"}) {
		t.Errorf("evicted %v, want [b]", ev.keys)
	}
}

func TestCacheCostBound(t *testing.T) {
	var ev evictLog
	c := New(100, 10, 0, ev.hook)
	c.Put("a", []byte("12345678"), 8)
	c.Put("b", []byte("12345678"), 8)
	if _, ok := c.Get("a"); ok {
		t.Error("a should have been evicted to satisfy the cost bound")
	}
	if _, ok := c.Get("b"); !ok {
		t.Error("b should survive")
	}
	if _, cost := c.Stats(); cost != 8 {
		t.Errorf("cost = %d, want 8", cost)
	}

	// An oversized entry still caches: the entry just put is never
	// evicted, even when it alone exceeds the bound.
	c.Put("big", make([]byte, 64), 64)
	if !has(c, "big") {
		t.Error("oversized entry should remain cached")
	}
	if n, cost := c.Stats(); n != 1 || cost != 64 {
		t.Errorf("stats = %d entries / %d cost, want 1 / 64 (everything else evicted)", n, cost)
	}
	if !slices.Equal(ev.keys, []string{"a", "b"}) {
		t.Errorf("evicted %v, want [a b]", ev.keys)
	}
}

// A re-put whose cost grew evicts older entries to make room, and
// never the re-put entry itself.
func TestCacheRePutCostChange(t *testing.T) {
	c := New[string, int](0, 10, 0, nil)
	c.Put("a", 1, 4)
	c.Put("b", 2, 4)
	c.Put("a", 3, 8)
	if v, ok := c.Get("a"); !ok || v != 3 {
		t.Fatalf("a = %d, %v; want the re-put value 3", v, ok)
	}
	if has(c, "b") {
		t.Error("b should have been evicted when a grew past the bound")
	}
	if n, cost := c.Stats(); n != 1 || cost != 8 {
		t.Errorf("stats = %d entries / %d cost, want 1 / 8", n, cost)
	}
}

func TestCacheTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	var ev evictLog
	c := New(10, 0, time.Minute, ev.hook)
	c.now = func() time.Time { return now }

	c.Put("a", []byte("aa"), 2)
	c.Put("b", []byte("bb"), 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("fresh entry should hit")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := c.Get("a"); ok {
		t.Error("expired entry should miss")
	}
	if has(c, "b") {
		t.Error("Peek should drop the expired entry too")
	}
	if n, cost := c.Stats(); n != 0 || cost != 0 {
		t.Errorf("stats = %d entries / %d cost, want 0 / 0 after expiry", n, cost)
	}
	if !slices.Equal(ev.keys, []string{"a", "b"}) {
		t.Errorf("hook saw %v, want expiries [a b]", ev.keys)
	}
}

func TestCachePutRefreshes(t *testing.T) {
	now := time.Unix(1000, 0)
	c := New[string, []byte](10, 0, time.Minute, nil)
	c.now = func() time.Time { return now }

	payload := []byte("payload")
	c.Put("k", payload, int64(len(payload)))
	now = now.Add(45 * time.Second)
	c.Put("k", payload, int64(len(payload))) // same key: refresh, not duplicate
	if n, cost := c.Stats(); n != 1 || cost != int64(len(payload)) {
		t.Errorf("entries=%d cost=%d, want 1 entry not double-counted", n, cost)
	}
	now = now.Add(45 * time.Second) // 90s after first put, 45s after refresh
	if _, ok := c.Get("k"); !ok {
		t.Error("refreshed entry should still be live")
	}
}

// Peek must not make an entry more recent.
func TestCachePeekKeepsRecency(t *testing.T) {
	c := New[string, int](2, 0, 0, nil)
	c.Put("a", 1, 0)
	c.Put("b", 2, 0)
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d, %v; want 1, true", v, ok)
	}
	c.Put("c", 3, 0)
	if has(c, "a") || !has(c, "b") {
		t.Error("Peek refreshed a: it should have been the LRU victim, not b")
	}
}

// Remove drops an entry without the eviction hook: the store uses it
// when a segment's file has already vanished.
func TestCacheRemoveSkipsHook(t *testing.T) {
	var ev evictLog
	c := New(0, 0, 0, ev.hook)
	c.Put("a", []byte("aa"), 2)
	c.Remove("a")
	c.Remove("missing")
	if n, cost := c.Stats(); n != 0 || cost != 0 {
		t.Errorf("stats = %d entries / %d cost after Remove, want 0 / 0", n, cost)
	}
	if len(ev.keys) != 0 {
		t.Errorf("Remove called the eviction hook for %v", ev.keys)
	}
}
