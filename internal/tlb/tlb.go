// Package tlb implements the hardware lookup structures on the address
// translation path: set-associative page TLBs with true LRU replacement
// and way-disabling, fully-associative TLBs, and the range TLB used by
// Redundant Memory Mappings.
//
// The structures are deliberately behavioural, not cycle-level: a lookup
// either hits (returning the entry and its LRU stack position, which the
// Lite mechanism's lru-distance counters consume) or misses. Energy is
// accounted by the caller per lookup/fill using the structure's current
// active-way count, matching the paper's model E = A·E_read + M·E_write.
package tlb

import "fmt"

// Stats counts the events on one lookup structure.
type Stats struct {
	Lookups uint64 // probe operations (hit or miss)
	Hits    uint64
	Misses  uint64
	Fills   uint64 // entries written after a miss
	Evicts  uint64 // valid entries displaced by fills
	Invals  uint64 // entries dropped by way-disabling or flushes
}

// HitRatio returns hits/lookups, or 0 when the structure was never
// probed.
func (s Stats) HitRatio() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Entry is one page-TLB entry: a tag (virtual page number, or any
// caller-defined key) and its payload frame. The payload is opaque to
// the TLB.
type Entry struct {
	Key   uint64
	Frame uint64
}

// SetAssoc is a set-associative TLB with true LRU replacement per set
// and support for way-disabling (Albonesi, MICRO 1999): only the first
// ActiveWays LRU stack positions of each set are usable. Disabling ways
// invalidates the entries beyond the new way count — TLBs hold no dirty
// state, so no write-back is needed (paper §4.2.3).
//
// The geometry is fixed at construction: entries/ways sets. Way-disabling
// shrinks associativity while the set count stays constant, exactly as
// the paper's Lite mechanism assumes (§4.1).
//
// All sets live in one flat array: set i's n[i] resident entries start
// at data[i*ways], most recently used first, so the offset within the
// set IS the LRU stack position (0 = MRU).
type SetAssoc struct {
	name string
	sets int
	ways int
	mask uint64 // key & mask is the set when pow2; otherwise key % sets
	pow2 bool

	active int // currently active ways, 1..ways

	data  []Entry
	n     []int
	stats Stats

	// onResize, when set, runs at the start of every SetActiveWays while
	// ActiveWays still reports the old configuration.
	onResize func()
}

// NewSetAssoc constructs a TLB with the given total entry count and
// associativity. entries must be a positive multiple of ways.
func NewSetAssoc(name string, entries, ways int) *SetAssoc {
	if ways <= 0 || entries <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("tlb: invalid geometry %d entries / %d ways", entries, ways))
	}
	sets := entries / ways
	return &SetAssoc{name: name, sets: sets, ways: ways, active: ways,
		mask: uint64(sets - 1), pow2: sets&(sets-1) == 0,
		data: make([]Entry, entries), n: make([]int, sets)}
}

// NewFullyAssoc constructs a fully-associative TLB (a single set).
func NewFullyAssoc(name string, entries int) *SetAssoc {
	return NewSetAssoc(name, entries, entries)
}

// Name returns the identifier given at construction.
func (t *SetAssoc) Name() string { return t.name }

// Sets returns the set count.
func (t *SetAssoc) Sets() int { return t.sets }

// Ways returns the physical associativity.
func (t *SetAssoc) Ways() int { return t.ways }

// ActiveWays returns the number of currently enabled ways.
func (t *SetAssoc) ActiveWays() int { return t.active }

// Entries returns the physical capacity (sets × ways).
func (t *SetAssoc) Entries() int { return t.sets * t.ways }

// ActiveEntries returns the capacity at the current way configuration.
func (t *SetAssoc) ActiveEntries() int { return t.sets * t.active }

// Stats returns a copy of the event counters.
func (t *SetAssoc) Stats() Stats { return t.stats }

// ResetStats zeroes the event counters.
func (t *SetAssoc) ResetStats() { t.stats = Stats{} }

func (t *SetAssoc) setOf(key uint64) int {
	if t.pow2 {
		return int(key & t.mask)
	}
	return int(key % uint64(t.sets))
}

// resident returns set i's resident entries, MRU first.
func (t *SetAssoc) resident(i int) []Entry { return t.data[i*t.ways : i*t.ways+t.n[i]] }

// toFront shifts s[:pos] one slot toward the LRU end and writes e at
// the MRU position: a promotion when s[pos] held e, a fill when pos is
// the first free slot.
func toFront(s []Entry, pos int, e Entry) {
	for j := pos; j > 0; j-- {
		s[j] = s[j-1]
	}
	s[0] = e
}

// Lookup probes the TLB. On a hit it returns the entry, the entry's LRU
// stack position before the probe (0 = most recently used), and true;
// the entry is promoted to MRU. On a miss it returns position -1.
//
//eeat:hotpath
func (t *SetAssoc) Lookup(key uint64) (Entry, int, bool) {
	t.stats.Lookups++
	si := t.setOf(key)
	base := si * t.ways
	s := t.data[base : base+t.n[si]]
	for i := range s {
		if s[i].Key == key {
			t.stats.Hits++
			e := s[i]
			toFront(s, i, e)
			return e, i, true
		}
	}
	t.stats.Misses++
	return Entry{}, -1, false
}

// Peek reports whether key is present without updating recency or stats.
func (t *SetAssoc) Peek(key uint64) bool {
	for _, e := range t.resident(t.setOf(key)) {
		if e.Key == key {
			return true
		}
	}
	return false
}

// Insert fills the TLB with an entry at the MRU position of its set,
// evicting the LRU entry if the set is full at the current active-way
// count. Inserting a key that is already present refreshes its payload
// and promotes it without a fill.
//
//eeat:hotpath
func (t *SetAssoc) Insert(e Entry) {
	si := t.setOf(e.Key)
	s := t.resident(si)
	for i := range s {
		if s[i].Key == e.Key {
			toFront(s, i, e)
			return
		}
	}
	t.stats.Fills++
	n := len(s)
	if n >= t.active {
		t.stats.Evicts++
		n = t.active - 1 // drop LRU tail
	}
	t.n[si] = n + 1
	toFront(t.resident(si), n, e)
}

// Invalidate removes the entry for key if present, returning whether it
// was.
func (t *SetAssoc) Invalidate(key uint64) bool {
	si := t.setOf(key)
	s := t.resident(si)
	for i := range s {
		if s[i].Key == key {
			copy(s[i:], s[i+1:])
			t.n[si]--
			t.stats.Invals++
			return true
		}
	}
	return false
}

// Flush invalidates every entry.
func (t *SetAssoc) Flush() {
	for i, n := range t.n {
		t.stats.Invals += uint64(n)
		t.n[i] = 0
	}
}

// SetActiveWays reconfigures the TLB to w active ways (1..Ways). When
// shrinking, entries beyond the new way count — the least recently used
// of each set — are invalidated so re-enabled ways never expose stale
// translations (paper §4.2.3). Growing leaves existing contents alone;
// the newly enabled ways start empty.
func (t *SetAssoc) SetActiveWays(w int) {
	if w < 1 || w > t.ways {
		panic(fmt.Sprintf("tlb %s: SetActiveWays(%d) outside 1..%d", t.name, w, t.ways))
	}
	if t.onResize != nil {
		t.onResize()
	}
	for i, n := range t.n {
		if n > w {
			t.stats.Invals += uint64(n - w)
			t.n[i] = w
		}
	}
	t.active = w
}

// OnResize registers fn to run at the start of every SetActiveWays,
// before the way count changes, replacing any earlier hook. A monitor
// that counts lookups per way configuration uses it to close the
// count at the old configuration, however the resize was made.
func (t *SetAssoc) OnResize(fn func()) { t.onResize = fn }

// Len returns the number of valid entries currently held.
func (t *SetAssoc) Len() int {
	total := 0
	for _, n := range t.n {
		total += n
	}
	return total
}

// CheckInvariants validates structural consistency: no set exceeds the
// active way count, every key indexes to its set, and no key appears
// twice in a set. It is production API — the runtime auditor in
// internal/audit calls it on a fixed cadence during simulation — so it
// is allocation-free (the duplicate scan is pairwise over at most
// Ways entries, which is cheaper than a map for TLB associativities).
func (t *SetAssoc) CheckInvariants() error {
	for i, n := range t.n {
		if n > t.active {
			return fmt.Errorf("tlb %s: set %d holds %d entries with %d active ways",
				t.name, i, n, t.active)
		}
		s := t.resident(i)
		for j, e := range s {
			if t.setOf(e.Key) != i {
				return fmt.Errorf("tlb %s: key %#x in wrong set %d", t.name, e.Key, i)
			}
			for _, prev := range s[:j] {
				if prev.Key == e.Key {
					return fmt.Errorf("tlb %s: duplicate key %#x in set %d", t.name, e.Key, i)
				}
			}
		}
	}
	return nil
}

// ForEach calls fn for every valid entry without touching recency or
// statistics. It is allocation-free; the runtime auditor uses it for
// coherence scans against the page table. fn must not mutate the TLB.
func (t *SetAssoc) ForEach(fn func(Entry)) {
	for i := range t.n {
		for _, e := range t.resident(i) {
			fn(e)
		}
	}
}

// MutateEntry calls fn on each resident entry in turn until fn returns
// true, meaning it mutated that entry; the walk then stops and
// MutateEntry reports whether any entry was mutated. It exists solely
// for the audit fault injector (internal/audit/inject), which corrupts
// one cached entry in place to prove the auditor detects it — no
// simulation path mutates entries this way.
func (t *SetAssoc) MutateEntry(fn func(*Entry) bool) bool {
	for i := range t.n {
		s := t.resident(i)
		for j := range s {
			if fn(&s[j]) {
				return true
			}
		}
	}
	return false
}

// InvalidateIf removes every entry the predicate matches, returning the
// count removed. This is the building block for OS-initiated shootdowns
// of address ranges.
func (t *SetAssoc) InvalidateIf(pred func(Entry) bool) int {
	n := 0
	for i := range t.n {
		kept := 0
		s := t.resident(i)
		for _, e := range s {
			if pred(e) {
				n++
				continue
			}
			s[kept] = e
			kept++
		}
		t.n[i] = kept
	}
	t.stats.Invals += uint64(n)
	return n
}
