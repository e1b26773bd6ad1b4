// Package keyed holds the two keyed building blocks the service, the
// cluster coordinator and the trace subsystem share: Cache, a bounded
// LRU map, and Group, which runs one load per key for concurrent
// callers.
package keyed

import (
	"container/list"
	"sync"
	"time"
)

// Cache is an LRU map bounded by entry count and by the summed cost
// (in bytes) of its entries, with an optional TTL. Putting an entry
// evicts least-recently-used entries until both bounds hold again, but
// never the entry just put, so one entry larger than the cost bound is
// still kept. Expired entries are dropped when a lookup finds them.
// Every eviction and expiry calls the eviction hook, after the entry
// has left the cache and outside its lock. Safe for concurrent use.
type Cache[K comparable, V any] struct {
	maxEntries int           // 0 = unbounded
	maxCost    int64         // 0 = unbounded
	ttl        time.Duration // 0 = entries never expire
	onEvict    func(K, V)
	now        func() time.Time // test hook

	mu      sync.Mutex
	entries map[K]*list.Element // values are *entry[K, V]
	lru     *list.List          // front = most recent
	cost    int64
}

type entry[K comparable, V any] struct {
	key    K
	val    V
	cost   int64
	stored time.Time
}

// New returns an empty cache. maxEntries and maxCost bound it (0 =
// unbounded), ttl ages entries out (0 = never), and onEvict, when
// non-nil, sees every entry the cache evicts or expires.
func New[K comparable, V any](maxEntries int, maxCost int64, ttl time.Duration, onEvict func(K, V)) *Cache[K, V] {
	return &Cache[K, V]{
		maxEntries: maxEntries,
		maxCost:    maxCost,
		ttl:        ttl,
		onEvict:    onEvict,
		now:        time.Now,
		entries:    make(map[K]*list.Element),
		lru:        list.New(),
	}
}

// Get returns the value under key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) { return c.lookup(key, true) }

// Peek is Get without the recency bump.
func (c *Cache[K, V]) Peek(key K) (V, bool) { return c.lookup(key, false) }

func (c *Cache[K, V]) lookup(key K, bump bool) (V, bool) {
	var zero V
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return zero, false
	}
	e := el.Value.(*entry[K, V])
	if c.ttl > 0 && c.now().Sub(e.stored) > c.ttl {
		c.removeLocked(el)
		c.mu.Unlock()
		c.evicted([]*entry[K, V]{e})
		return zero, false
	}
	if bump {
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	return e.val, true
}

// Put stores val under key at the given cost, replacing (and
// refreshing the age of) an existing entry, then evicts from the LRU
// end until the bounds hold again.
func (c *Cache[K, V]) Put(key K, val V, cost int64) {
	c.mu.Lock()
	now := c.now()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry[K, V])
		c.cost += cost - e.cost
		e.val, e.cost, e.stored = val, cost, now
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&entry[K, V]{key: key, val: val, cost: cost, stored: now})
		c.cost += cost
	}
	var gone []*entry[K, V]
	for c.lru.Len() > 1 && ((c.maxEntries > 0 && c.lru.Len() > c.maxEntries) || (c.maxCost > 0 && c.cost > c.maxCost)) {
		gone = append(gone, c.removeLocked(c.lru.Back()))
	}
	c.mu.Unlock()
	c.evicted(gone)
}

// Remove drops key without calling the eviction hook.
func (c *Cache[K, V]) Remove(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el)
	}
}

// Stats reports the number of entries and their summed cost.
func (c *Cache[K, V]) Stats() (entries int, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len(), c.cost
}

// evicted runs the eviction hook, outside the lock, on entries already
// removed.
func (c *Cache[K, V]) evicted(gone []*entry[K, V]) {
	if c.onEvict == nil {
		return
	}
	for _, e := range gone {
		c.onEvict(e.key, e.val)
	}
}

func (c *Cache[K, V]) removeLocked(el *list.Element) *entry[K, V] {
	e := el.Value.(*entry[K, V])
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.cost -= e.cost
	return e
}
