package tlb

import (
	"testing"
)

// FuzzSetAssoc drives a SetAssoc TLB with an arbitrary operation
// sequence — inserts, lookups, invalidations, region shootdowns,
// way-resizes, flushes — and asserts CheckInvariants plus a shadow-map
// cross-check after every operation. The shadow map is an upper bound
// on residency: the TLB may drop entries (evictions, way-disabling) but
// a hit must never return a frame other than the last one inserted.
func FuzzSetAssoc(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	// insert a..f, shrink to 1 way, grow back, re-probe
	f.Add([]byte{2, 0xa0, 2, 0xb0, 2, 0xc0, 2, 0xd0, 2, 0xe0, 2, 0xf0, 4, 0, 4, 2, 1, 0xa0, 1, 0xf0})
	// interleaved invalidations and a ranged shootdown
	f.Add([]byte{2, 0x10, 2, 0x11, 3, 0x10, 2, 0x12, 5, 0x10, 0x20, 0, 1, 0x11})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		geoms := []struct{ entries, ways int }{
			{64, 4}, {32, 4}, {16, 16}, {8, 2}, {4, 1},
			// 6 and 5 sets take the modulo set index instead of the
			// mask; 3 ways is a non-power-of-two associativity.
			{24, 4}, {12, 3}, {15, 3},
		}
		g := geoms[int(ops[0])%len(geoms)]
		ops = ops[1:]
		tl := NewSetAssoc("fuzz", g.entries, g.ways)
		shadow := map[uint64]uint64{} // key -> last inserted frame

		arg := func(i int) uint64 {
			if i < len(ops) {
				return uint64(ops[i])
			}
			return 0
		}
		for i := 0; i < len(ops); i++ {
			switch ops[i] % 6 {
			case 0: // lookup
				key := arg(i + 1)
				i++
				if e, pos, ok := tl.Lookup(key); ok {
					if want, present := shadow[key]; !present || e.Frame != want {
						t.Fatalf("hit on %#x returned frame %#x, want %#x (present=%v)",
							key, e.Frame, want, present)
					}
					if pos < 0 || pos >= tl.ActiveWays() {
						t.Fatalf("hit position %d outside 0..%d", pos, tl.ActiveWays()-1)
					}
				}
			case 1: // peek (no state change)
				key := arg(i + 1)
				i++
				if tl.Peek(key) {
					if _, present := shadow[key]; !present {
						t.Fatalf("peek found never-inserted key %#x", key)
					}
				}
			case 2: // insert
				key := arg(i + 1)
				i++
				frame := key<<12 | uint64(i)
				tl.Insert(Entry{Key: key, Frame: frame})
				shadow[key] = frame
				if !tl.Peek(key) {
					t.Fatalf("key %#x absent immediately after insert", key)
				}
			case 3: // invalidate
				key := arg(i + 1)
				i++
				tl.Invalidate(key)
				delete(shadow, key)
				if tl.Peek(key) {
					t.Fatalf("key %#x present after invalidate", key)
				}
			case 4: // resize active ways
				w := 1 + int(arg(i+1))%tl.Ways()
				i++
				tl.SetActiveWays(w)
				if tl.Len() > tl.ActiveEntries() {
					t.Fatalf("%d entries resident with active capacity %d",
						tl.Len(), tl.ActiveEntries())
				}
			case 5: // ranged shootdown [lo, hi)
				lo, hi := arg(i+1), arg(i+2)
				i += 2
				if lo > hi {
					lo, hi = hi, lo
				}
				tl.InvalidateIf(func(e Entry) bool { return e.Key >= lo && e.Key < hi })
				for k := range shadow {
					if k >= lo && k < hi {
						delete(shadow, k)
					}
				}
			}
			if err := tl.CheckInvariants(); err != nil {
				t.Fatalf("after op %d: %v", i, err)
			}
			if tl.Len() > len(shadow) {
				t.Fatalf("TLB holds %d entries but only %d were ever live", tl.Len(), len(shadow))
			}
		}
		// Occasionally end with a flush to keep that path covered.
		if len(ops) > 0 && ops[len(ops)-1]%7 == 0 {
			tl.Flush()
			if tl.Len() != 0 {
				t.Fatalf("%d entries survive a flush", tl.Len())
			}
			if err := tl.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestCheckInvariantsAllocFree pins the property the runtime auditor
// depends on: invariant checking on a full TLB allocates nothing, so
// in-run audits cannot perturb GC behaviour.
func TestCheckInvariantsAllocFree(t *testing.T) {
	tl := NewSetAssoc("alloc", 64, 4)
	for k := uint64(0); k < 256; k++ {
		tl.Insert(Entry{Key: k, Frame: k << 12})
	}
	var err error
	if n := testing.AllocsPerRun(100, func() {
		err = tl.CheckInvariants()
	}); n != 0 {
		t.Errorf("CheckInvariants allocates %.1f times per run", n)
	}
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		tl.ForEach(func(Entry) {})
	}); n != 0 {
		t.Errorf("ForEach allocates %.1f times per run", n)
	}
}
