package tlb

import (
	"errors"
	"fmt"

	"xlate/internal/addr"
)

// ErrBadRange is wrapped by Insert when handed an inverted or
// overlapping range translation, so callers can classify malformed
// ranges with errors.Is instead of recovering a panic.
var ErrBadRange = errors.New("malformed range translation")

// RangeEntry is one range-translation entry: an arbitrarily large range
// of pages contiguous in both virtual and physical address space with
// uniform protection (Karakostas et al., ISCA 2015). The entry maps
// [Start, End) to [PABase, PABase+End-Start).
type RangeEntry struct {
	Start  addr.VA // inclusive, page aligned
	End    addr.VA // exclusive, page aligned
	PABase addr.PA // physical address of Start
}

// Contains reports whether va falls inside the range.
func (e RangeEntry) Contains(va addr.VA) bool { return va >= e.Start && va < e.End }

// Translate maps va (which must be inside the range) to its physical
// address.
func (e RangeEntry) Translate(va addr.VA) addr.PA {
	return e.PABase + addr.PA(va-e.Start)
}

// Bytes returns the size of the range.
func (e RangeEntry) Bytes() uint64 { return uint64(e.End - e.Start) }

// RangeTLB is a small fully-associative TLB holding range translations
// with LRU replacement. A lookup is a parallel range comparison (two
// bound checks per entry) rather than a tag equality check; the energy
// model charges it as a CAM with twice the tag bits (paper §5).
//
// The paper uses a 32-entry L2-range TLB (RMM) and adds a 4-entry
// L1-range TLB (RMM_Lite) that is small enough to meet L1 timing.
type RangeTLB struct {
	name     string
	capacity int
	// entries is ordered most-recently-used first.
	entries []RangeEntry
	stats   Stats
}

// NewRangeTLB constructs a range TLB with the given entry capacity.
func NewRangeTLB(name string, capacity int) *RangeTLB {
	if capacity <= 0 {
		panic(fmt.Sprintf("tlb: invalid range TLB capacity %d", capacity))
	}
	return &RangeTLB{name: name, capacity: capacity,
		entries: make([]RangeEntry, 0, capacity)}
}

// Name returns the identifier given at construction.
func (t *RangeTLB) Name() string { return t.name }

// Capacity returns the entry capacity.
func (t *RangeTLB) Capacity() int { return t.capacity }

// Len returns the number of valid entries.
func (t *RangeTLB) Len() int { return len(t.entries) }

// Stats returns a copy of the event counters.
func (t *RangeTLB) Stats() Stats { return t.stats }

// ResetStats zeroes the event counters.
func (t *RangeTLB) ResetStats() { t.stats = Stats{} }

// Lookup probes the range TLB for a range containing va. On a hit the
// entry is promoted to MRU.
//
//eeat:hotpath
func (t *RangeTLB) Lookup(va addr.VA) (RangeEntry, bool) {
	t.stats.Lookups++
	for i, e := range t.entries {
		if e.Contains(va) {
			t.stats.Hits++
			copy(t.entries[1:i+1], t.entries[:i])
			t.entries[0] = e
			return e, true
		}
	}
	t.stats.Misses++
	return RangeEntry{}, false
}

// Insert fills the range TLB with a range translation, evicting the LRU
// entry if full. Inserting a range identical to a resident one promotes
// it instead of duplicating. Inverted or overlapping-but-non-identical
// ranges are rejected with an error wrapping ErrBadRange — the range
// table never produces them, so the simulator treats a rejection as an
// internal invariant violation.
//
//eeat:hotpath
func (t *RangeTLB) Insert(e RangeEntry) error {
	if e.End <= e.Start {
		return fmt.Errorf("tlb %s: %w: inverted range [%#x,%#x)", t.name, ErrBadRange, e.Start, e.End) //eeatlint:allow hotpath reject path runs only on an internal invariant violation, which aborts the run
	}
	for i, old := range t.entries {
		if old == e {
			copy(t.entries[1:i+1], t.entries[:i])
			t.entries[0] = e
			return nil
		}
		if old.Start < e.End && e.Start < old.End {
			return fmt.Errorf("tlb %s: %w: overlapping ranges [%#x,%#x) and [%#x,%#x)", //eeatlint:allow hotpath reject path runs only on an internal invariant violation, which aborts the run
				t.name, ErrBadRange, old.Start, old.End, e.Start, e.End)
		}
	}
	t.stats.Fills++
	if len(t.entries) >= t.capacity {
		t.stats.Evicts++
		t.entries = t.entries[:t.capacity-1]
	}
	t.entries = append(t.entries, RangeEntry{}) //eeatlint:allow hotpath entries is preallocated to capacity; the eviction above keeps len below it
	copy(t.entries[1:], t.entries[:len(t.entries)-1])
	t.entries[0] = e
	return nil
}

// InvalidateOverlapping removes every entry that overlaps [start, end),
// returning the number removed. The OS invokes this when it changes a
// mapping.
func (t *RangeTLB) InvalidateOverlapping(start, end addr.VA) int {
	n := 0
	dst := t.entries[:0]
	for _, e := range t.entries {
		if e.Start < end && start < e.End {
			n++
			continue
		}
		dst = append(dst, e) // compacts in place over entries' own backing array
	}
	t.entries = dst
	t.stats.Invals += uint64(n)
	return n
}

// Flush invalidates every entry.
func (t *RangeTLB) Flush() {
	t.stats.Invals += uint64(len(t.entries))
	t.entries = t.entries[:0]
}

// ForEach calls fn for every valid entry without touching recency or
// statistics. It is allocation-free; the runtime auditor uses it for
// coherence scans against the range table. fn must not mutate the TLB.
func (t *RangeTLB) ForEach(fn func(RangeEntry)) {
	for _, e := range t.entries {
		fn(e)
	}
}

// CheckInvariants validates the structural invariants of the range TLB:
// occupancy never exceeds capacity, no resident range is inverted or
// empty, and no two resident ranges overlap. It is allocation-free so
// the runtime auditor can call it from inside the simulation loop.
func (t *RangeTLB) CheckInvariants() error {
	if len(t.entries) > t.capacity {
		return fmt.Errorf("tlb %s: %d entries exceed capacity %d", t.name, len(t.entries), t.capacity)
	}
	for i, e := range t.entries {
		if e.End <= e.Start {
			return fmt.Errorf("tlb %s: entry %d holds inverted range [%#x,%#x)", t.name, i, e.Start, e.End)
		}
		for j := i + 1; j < len(t.entries); j++ {
			o := t.entries[j]
			if o.Start < e.End && e.Start < o.End {
				return fmt.Errorf("tlb %s: entries %d and %d overlap: [%#x,%#x) and [%#x,%#x)",
					t.name, i, j, e.Start, e.End, o.Start, o.End)
			}
		}
	}
	return nil
}

// MutateEntry calls fn on each resident entry in turn until fn returns
// true, meaning it mutated that entry; the walk then stops and
// MutateEntry reports whether any entry was mutated. It exists solely
// for the audit fault injector (internal/audit/inject) — no simulation
// path mutates entries this way.
func (t *RangeTLB) MutateEntry(fn func(*RangeEntry) bool) bool {
	for i := range t.entries {
		if fn(&t.entries[i]) {
			return true
		}
	}
	return false
}
