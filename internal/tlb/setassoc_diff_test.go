package tlb

import (
	"math/rand"
	"testing"
)

// refSetAssoc is the reference model for SetAssoc: the straightforward
// slice-of-slices true-LRU TLB, one slice per set ordered MRU first,
// indexed by key % sets. The flat SetAssoc must be indistinguishable
// from it through every operation the simulator uses.
type refSetAssoc struct {
	sets, ways, active int
	data               [][]Entry
	stats              Stats
}

func newRefSetAssoc(entries, ways int) *refSetAssoc {
	r := &refSetAssoc{sets: entries / ways, ways: ways, active: ways}
	r.data = make([][]Entry, r.sets)
	return r
}

func (r *refSetAssoc) set(key uint64) *[]Entry { return &r.data[key%uint64(r.sets)] }

func (r *refSetAssoc) Lookup(key uint64) (Entry, int, bool) {
	r.stats.Lookups++
	s := r.set(key)
	for i, e := range *s {
		if e.Key == key {
			r.stats.Hits++
			*s = append([]Entry{e}, append((*s)[:i:i], (*s)[i+1:]...)...)
			return e, i, true
		}
	}
	r.stats.Misses++
	return Entry{}, -1, false
}

func (r *refSetAssoc) Insert(e Entry) {
	s := r.set(e.Key)
	for i, old := range *s {
		if old.Key == e.Key {
			*s = append([]Entry{e}, append((*s)[:i:i], (*s)[i+1:]...)...)
			return
		}
	}
	r.stats.Fills++
	if len(*s) >= r.active {
		r.stats.Evicts++
		*s = (*s)[:r.active-1]
	}
	*s = append([]Entry{e}, *s...)
}

func (r *refSetAssoc) Invalidate(key uint64) bool {
	s := r.set(key)
	for i, e := range *s {
		if e.Key == key {
			*s = append((*s)[:i:i], (*s)[i+1:]...)
			r.stats.Invals++
			return true
		}
	}
	return false
}

func (r *refSetAssoc) InvalidateIf(pred func(Entry) bool) int {
	n := 0
	for i, s := range r.data {
		var kept []Entry
		for _, e := range s {
			if pred(e) {
				n++
				continue
			}
			kept = append(kept, e)
		}
		r.data[i] = kept
	}
	r.stats.Invals += uint64(n)
	return n
}

func (r *refSetAssoc) SetActiveWays(w int) {
	for i, s := range r.data {
		if len(s) > w {
			r.stats.Invals += uint64(len(s) - w)
			r.data[i] = s[:w]
		}
	}
	r.active = w
}

func (r *refSetAssoc) Flush() {
	for i, s := range r.data {
		r.stats.Invals += uint64(len(s))
		r.data[i] = nil
	}
}

func (r *refSetAssoc) Len() int {
	n := 0
	for _, s := range r.data {
		n += len(s)
	}
	return n
}

// TestSetAssocMatchesReference drives the flat SetAssoc and the
// slice-of-slices reference model with the same seeded random operation
// sequences and compares them op by op: every Lookup's entry, LRU
// position and hit, every Invalidate and InvalidateIf result, and the
// statistics, occupancy and full contents after each operation. The
// geometries include non-power-of-two set counts (24/4 = 6 sets, 40/8 =
// 5), which take the modulo set-index fallback instead of the mask.
func TestSetAssocMatchesReference(t *testing.T) {
	geoms := []struct{ entries, ways int }{
		{64, 4}, {16, 16}, {4, 1}, {24, 4}, {12, 3}, {1536, 12}, {40, 8},
	}
	for _, g := range geoms {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tl := NewSetAssoc("diff", g.entries, g.ways)
			ref := newRefSetAssoc(g.entries, g.ways)
			// Keys from a space a few times the capacity, so sets fill,
			// evict and hit in roughly equal measure.
			keySpace := int64(3 * g.entries)
			for op := 0; op < 4000; op++ {
				key := uint64(rng.Int63n(keySpace))
				switch k := rng.Intn(100); {
				case k < 45:
					ge, gp, gh := tl.Lookup(key)
					we, wp, wh := ref.Lookup(key)
					if ge != we || gp != wp || gh != wh {
						t.Fatalf("%v seed %d op %d: Lookup(%#x) = %v,%d,%v, reference %v,%d,%v",
							g, seed, op, key, ge, gp, gh, we, wp, wh)
					}
				case k < 85:
					e := Entry{Key: key, Frame: uint64(op)}
					tl.Insert(e)
					ref.Insert(e)
				case k < 92:
					if got, want := tl.Invalidate(key), ref.Invalidate(key); got != want {
						t.Fatalf("%v seed %d op %d: Invalidate(%#x) = %v, reference %v", g, seed, op, key, got, want)
					}
				case k < 95:
					lo := key
					hi := lo + uint64(rng.Int63n(keySpace/4+1))
					pred := func(e Entry) bool { return e.Key >= lo && e.Key < hi }
					if got, want := tl.InvalidateIf(pred), ref.InvalidateIf(pred); got != want {
						t.Fatalf("%v seed %d op %d: InvalidateIf = %d, reference %d", g, seed, op, got, want)
					}
				case k < 99:
					w := 1 + rng.Intn(g.ways)
					tl.SetActiveWays(w)
					ref.SetActiveWays(w)
				default:
					tl.Flush()
					ref.Flush()
				}
				if tl.Stats() != ref.stats {
					t.Fatalf("%v seed %d op %d: stats %+v, reference %+v", g, seed, op, tl.Stats(), ref.stats)
				}
				if tl.Len() != ref.Len() {
					t.Fatalf("%v seed %d op %d: Len %d, reference %d", g, seed, op, tl.Len(), ref.Len())
				}
				for i, want := range ref.data {
					got := tl.resident(i)
					if len(got) != len(want) {
						t.Fatalf("%v seed %d op %d: set %d holds %v, reference %v", g, seed, op, i, got, want)
					}
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("%v seed %d op %d: set %d holds %v, reference %v", g, seed, op, i, got, want)
						}
					}
				}
			}
			if err := tl.CheckInvariants(); err != nil {
				t.Fatalf("%v seed %d: %v", g, seed, err)
			}
		}
	}
}
