package pagetable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xlate/internal/addr"
)

func TestMapLookup4K(t *testing.T) {
	pt := New()
	va := addr.VA(0x7f0012345000)
	if err := pt.Map(va, addr.Page4K, 0xabc000); err != nil {
		t.Fatal(err)
	}
	m, ok := pt.Lookup(va + 0xfff)
	if !ok || m.Size != addr.Page4K || m.Frame != 0xabc000 {
		t.Fatalf("Lookup = %+v ok=%v", m, ok)
	}
	if _, ok := pt.Lookup(va + 0x1000); ok {
		t.Fatal("next page should not be mapped")
	}
	pa, ok := pt.Translate(va + 0x123)
	if !ok || pa != 0xabc123 {
		t.Fatalf("Translate = %#x ok=%v", uint64(pa), ok)
	}
}

func TestMapHugePages(t *testing.T) {
	pt := New()
	va2m := addr.VA(0x40000000)
	if err := pt.Map(va2m, addr.Page2M, 2<<20); err != nil {
		t.Fatal(err)
	}
	m, ok := pt.Lookup(va2m + (1 << 20))
	if !ok || m.Size != addr.Page2M {
		t.Fatalf("2MB lookup = %+v ok=%v", m, ok)
	}
	va1g := addr.VA(0x80000000)
	if err := pt.Map(va1g, addr.Page1G, 1<<30); err != nil {
		t.Fatal(err)
	}
	m, ok = pt.Lookup(va1g + (512 << 20))
	if !ok || m.Size != addr.Page1G {
		t.Fatalf("1GB lookup = %+v ok=%v", m, ok)
	}
	if pt.Count(addr.Page2M) != 1 || pt.Count(addr.Page1G) != 1 {
		t.Fatal("counts wrong")
	}
	want := uint64(addr.Bytes2M + addr.Bytes1G)
	if pt.MappedBytes() != want {
		t.Fatalf("MappedBytes = %d, want %d", pt.MappedBytes(), want)
	}
}

func TestMapAlignmentErrors(t *testing.T) {
	pt := New()
	if err := pt.Map(0x1234, addr.Page4K, 0); err == nil {
		t.Fatal("misaligned va should fail")
	}
	if err := pt.Map(0x1000, addr.Page4K, 0x123); err == nil {
		t.Fatal("misaligned frame should fail")
	}
	if err := pt.Map(addr.VA(1<<20), addr.Page2M, 0); err == nil {
		t.Fatal("2MB map at 1MB alignment should fail")
	}
}

func TestMapConflicts(t *testing.T) {
	pt := New()
	va := addr.VA(0x40000000) // 1GB aligned
	if err := pt.Map(va, addr.Page4K, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(va, addr.Page4K, 0x2000); err == nil {
		t.Fatal("duplicate 4K map should fail")
	}
	// 2MB page over an existing 4K subtree must fail.
	if err := pt.Map(va, addr.Page2M, 0); err == nil {
		t.Fatal("2MB map over 4K subtree should fail")
	}
	// 4K page under an existing huge page must fail.
	va2 := va + addr.VA(addr.Bytes2M)
	if err := pt.Map(va2, addr.Page2M, 2<<20); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(va2+0x1000, addr.Page4K, 0x3000); err == nil {
		t.Fatal("4K map under 2MB page should fail")
	}
}

func TestUnmapAndPrune(t *testing.T) {
	pt := New()
	va := addr.VA(0x7f0012345000)
	if err := pt.Map(va, addr.Page4K, 0xabc000); err != nil {
		t.Fatal(err)
	}
	m, err := pt.Unmap(va)
	if err != nil || m.Frame != 0xabc000 || m.Size != addr.Page4K {
		t.Fatalf("Unmap = %+v err=%v", m, err)
	}
	if _, ok := pt.Lookup(va); ok {
		t.Fatal("unmapped va should not resolve")
	}
	if pt.Count(addr.Page4K) != 0 {
		t.Fatal("count not decremented")
	}
	// Pruning: root should be empty again, so a 1GB map in the same
	// region succeeds (no leftover subtree).
	if err := pt.Map(addr.PageBase(va, addr.Page1G), addr.Page1G, 1<<30); err != nil {
		t.Fatalf("map after prune: %v", err)
	}
	if _, err := pt.Unmap(va + 0x100000000); err == nil {
		t.Fatal("unmap of unmapped va should fail")
	}
}

func TestWalkerReferenceCounts(t *testing.T) {
	pt := New()
	w := NewWalker(pt)
	va4k := addr.VA(0x1000)
	pt.Map(va4k, addr.Page4K, 0x1000)
	va2m := addr.VA(0x40000000)
	pt.Map(va2m, addr.Page2M, 2<<20)
	va1g := addr.VA(0x80000000)
	pt.Map(va1g, addr.Page1G, 1<<30)

	cases := []struct {
		va    addr.VA
		start addr.Level
		refs  int
		size  addr.PageSize
	}{
		// Full walks: 4, 3, 2 refs for 4K, 2M, 1G (paper §3.2).
		{va4k, addr.LvlPML4, 4, addr.Page4K},
		{va2m, addr.LvlPML4, 3, addr.Page2M},
		{va1g, addr.LvlPML4, 2, addr.Page1G},
		// MMU-cache-accelerated walks.
		{va4k, addr.LvlPT, 1, addr.Page4K},   // PDE cache hit
		{va4k, addr.LvlPD, 2, addr.Page4K},   // PDPTE cache hit
		{va4k, addr.LvlPDPT, 3, addr.Page4K}, // PML4 cache hit
		{va2m, addr.LvlPD, 1, addr.Page2M},   // PDPTE cache hit
		{va2m, addr.LvlPDPT, 2, addr.Page2M}, // PML4 cache hit
		{va1g, addr.LvlPDPT, 1, addr.Page1G}, // PML4 cache hit
	}
	for _, c := range cases {
		m, refs, ok := w.Walk(c.va, c.start)
		if !ok || refs != c.refs || m.Size != c.size {
			t.Errorf("Walk(%#x, from %v) = size %v refs %d ok %v; want size %v refs %d",
				uint64(c.va), c.start, m.Size, refs, ok, c.size, c.refs)
		}
	}
}

func TestWalkerFault(t *testing.T) {
	pt := New()
	w := NewWalker(pt)
	// Empty table: walk faults after 1 reference (the root PML4E read).
	if _, refs, ok := w.Walk(0x1000, addr.LvlPML4); ok || refs != 1 {
		t.Fatalf("fault walk refs = %d ok = %v; want 1, false", refs, ok)
	}
	// Map a sibling page so interior nodes exist down to the PT; a walk
	// to an unmapped 4K page in the same PT reads all 4 levels.
	pt.Map(0x2000, addr.Page4K, 0x2000)
	if _, refs, ok := w.Walk(0x1000, addr.LvlPML4); ok || refs != 4 {
		t.Fatalf("deep fault walk refs = %d ok = %v; want 4, false", refs, ok)
	}
}

// Property: Map then Translate agrees with addr.Translate for every page
// size, and Unmap restores non-presence.
func TestQuickMapTranslateUnmap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pt := New()
		sizes := []addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G}
		type m struct {
			va addr.VA
			s  addr.PageSize
			fr addr.PA
		}
		var maps []m
		for i := 0; i < 50; i++ {
			s := sizes[rng.Intn(3)]
			// Spread mappings across 1GB-aligned slots to avoid overlap:
			// each iteration uses its own 1GB region.
			region := uint64(i) << addr.Shift1G
			off := addr.AlignDown(uint64(rng.Int63n(1<<addr.Shift1G)), s.Bytes())
			va := addr.VA(region | off)
			fr := addr.PA(addr.AlignDown(uint64(rng.Int63n(1<<40)), s.Bytes()))
			if s == addr.Page1G {
				off = 0
				va = addr.VA(region)
			}
			if err := pt.Map(va, s, fr); err != nil {
				return false
			}
			maps = append(maps, m{va, s, fr})
		}
		for _, mm := range maps {
			probe := mm.va + addr.VA(rng.Int63n(int64(mm.s.Bytes())))
			pa, ok := pt.Translate(probe)
			if !ok || pa != addr.Translate(mm.fr, probe, mm.s) {
				return false
			}
		}
		for _, mm := range maps {
			if _, err := pt.Unmap(mm.va); err != nil {
				return false
			}
			if _, ok := pt.Lookup(mm.va); ok {
				return false
			}
		}
		return pt.MappedBytes() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: walker reference counts equal levels visited — full walk of
// a mapped page always costs exactly Size.WalkRefs() references.
func TestQuickWalkRefsMatchPageSize(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pt := New()
		w := NewWalker(pt)
		sizes := []addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G}
		for i := 0; i < 30; i++ {
			s := sizes[rng.Intn(3)]
			va := addr.VA(uint64(i) << addr.Shift1G)
			if err := pt.Map(va, s, addr.PA(uint64(i)<<addr.Shift1G)); err != nil {
				return false
			}
			_, refs, ok := w.Walk(va, addr.LvlPML4)
			if !ok || refs != s.WalkRefs() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestLookupAgreesWithWalk pins the page-table descent that Lookup and
// the walker share against a brute-force model. Random 4 KB, 2 MB and
// 1 GB mappings are packed into a few slots per level, so probes land
// on leaves of every size and on holes at every level. For each probe,
// Lookup must return the same mapping and ok as a full Walk, both must
// match the model's covering mapping, and a walk from any start level
// must be charged for the levels from there down to the leaf or to the
// first empty entry.
func TestLookupAgreesWithWalk(t *testing.T) {
	type mapping struct {
		va addr.VA
		m  Mapping
	}
	// va composes per-level indices. Mappings use indices below 3, so a
	// probe with index 3 at some level finds a hole there.
	va := func(pml4, pdpt, pd, pt int) addr.VA {
		return addr.VA(pml4<<39 | pdpt<<30 | pd<<21 | pt<<12)
	}
	sizes := []addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pt := New()
		w := NewWalker(pt)
		var model []mapping
		for i := 0; i < 40; i++ {
			s := sizes[rng.Intn(3)]
			base := addr.PageBase(va(rng.Intn(3), rng.Intn(3), rng.Intn(3), rng.Intn(3)), s)
			frame := addr.PA(addr.AlignDown(uint64(rng.Int63n(1<<40)), s.Bytes()))
			if pt.Map(base, s, frame) == nil {
				model = append(model, mapping{base, Mapping{Frame: frame, Size: s}})
			}
		}
		for probeIdx := 0; probeIdx < 256; probeIdx++ {
			probe := va(probeIdx>>6, probeIdx>>4&3, probeIdx>>2&3, probeIdx&3) + addr.VA(rng.Int63n(addr.Bytes4K))
			var want Mapping
			wantOK := false
			deepest := -1 // deepest level whose entry for probe is occupied
			for _, mm := range model {
				if probe >= mm.va && uint64(probe-mm.va) < mm.m.Size.Bytes() {
					want, wantOK = mm.m, true
				}
				for lvl := addr.LvlPML4; lvl <= mm.m.Size.LeafLevel() && lvl.Prefix(probe) == lvl.Prefix(mm.va); lvl++ {
					deepest = max(deepest, int(lvl))
				}
			}
			// A mapped descent stops at the leaf; an unmapped one at the
			// first empty entry below the occupied ones.
			stop := deepest + 1
			if wantOK {
				stop = deepest
			}
			got, ok := pt.Lookup(probe)
			if ok != wantOK || got != want {
				t.Fatalf("seed %d va %#x: Lookup = %+v,%v, want %+v,%v",
					seed, uint64(probe), got, ok, want, wantOK)
			}
			for start := addr.LvlPML4; start <= addr.LvlPT; start++ {
				wm, refs, wok := w.Walk(probe, start)
				if wm != got || wok != ok {
					t.Fatalf("seed %d va %#x: Lookup = %+v,%v but Walk from %v = %+v,%v",
						seed, uint64(probe), got, ok, start, wm, wok)
				}
				if wantRefs := max(0, stop-int(start)+1); refs != wantRefs {
					t.Fatalf("seed %d va %#x: walk from %v made %d refs, want %d",
						seed, uint64(probe), start, refs, wantRefs)
				}
			}
		}
	}
}
