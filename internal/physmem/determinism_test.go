package physmem

import (
	"math/rand"
	"testing"

	"xlate/internal/addr"
)

// TestAllocDeterministic pins the buddy allocator's placement policy:
// two allocators driven by the same operation sequence must hand out
// identical addresses. Alloc picks the lowest-base free block of the
// chosen order, so placement is a pure function of the operation
// sequence.
func TestAllocDeterministic(t *testing.T) {
	run := func() []addr.PA {
		a := New(1 << 16)
		rng := rand.New(rand.NewSource(42))
		var live []addr.PA
		var got []addr.PA
		for i := 0; i < 2000; i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				if err := a.Free(live[k]); err != nil {
					t.Fatalf("Free(%#x): %v", uint64(live[k]), err)
				}
				live = append(live[:k], live[k+1:]...)
				continue
			}
			pa, err := a.Alloc(rng.Intn(6))
			if err != nil {
				continue // out of memory is fine; the sequence stays identical
			}
			live = append(live, pa)
			got = append(got, pa)
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	first, second := run(), run()
	if len(first) != len(second) {
		t.Fatalf("runs allocated %d vs %d blocks", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("allocation %d differs: %#x vs %#x", i, uint64(first[i]), uint64(second[i]))
		}
	}
}

// TestAllocLowestBase pins the tie-break directly: with several free
// blocks of the requested order, Alloc must return the lowest base.
func TestAllocLowestBase(t *testing.T) {
	a := New(64)
	var pas []addr.PA
	for i := 0; i < 8; i++ {
		pa, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		pas = append(pas, pa)
	}
	// Free a scattered subset, then re-allocate: the freed frames must
	// come back lowest-base first.
	for _, k := range []int{5, 1, 3} {
		if err := a.Free(pas[k]); err != nil {
			t.Fatal(err)
		}
	}
	want := []addr.PA{pas[1], pas[3], pas[5]}
	for i, w := range want {
		pa, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		if pa != w {
			t.Fatalf("re-allocation %d = %#x, want lowest free base %#x", i, uint64(pa), uint64(w))
		}
	}
}
