package physmem

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"xlate/internal/addr"
)

// refAllocator is a map-based buddy allocator with Allocator's placement
// policy, kept as the oracle for it: per-order free sets as maps, a map
// from block base to order, and Alloc taking the minimum key of the
// smallest non-empty order. Being a different data structure with the
// same rules, it shares no search or bookkeeping code with Allocator.
type refAllocator struct {
	frames    uint64
	free      [MaxOrder + 1]map[uint64]struct{}
	orderOf   map[uint64]int
	allocated uint64
	peak      uint64
}

func newRef(frames uint64) *refAllocator {
	a := &refAllocator{frames: frames, orderOf: make(map[uint64]int)}
	for k := range a.free {
		a.free[k] = make(map[uint64]struct{})
	}
	base := uint64(0)
	for base < frames {
		k := MaxOrder
		for k > 0 && (base&blockMask(k) != 0 || base+blockFrames(k) > frames) {
			k--
		}
		a.free[k][base] = struct{}{}
		base += blockFrames(k)
	}
	return a
}

func (a *refAllocator) Alloc(order int) (addr.PA, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("physmem: invalid order %d", order)
	}
	k := order
	for k <= MaxOrder && len(a.free[k]) == 0 {
		k++
	}
	if k > MaxOrder {
		return 0, fmt.Errorf("%w for order-%d block", ErrOutOfMemory, order)
	}
	base := ^uint64(0)
	for b := range a.free[k] {
		if b < base {
			base = b
		}
	}
	delete(a.free[k], base)
	for k > order {
		k--
		a.free[k][base+blockFrames(k)] = struct{}{}
	}
	a.orderOf[base] = order
	a.allocated += blockFrames(order)
	if a.allocated > a.peak {
		a.peak = a.allocated
	}
	return addr.PA(base << FrameShift), nil
}

func (a *refAllocator) Free(pa addr.PA) error {
	base := uint64(pa) >> FrameShift
	order, ok := a.orderOf[base]
	if !ok || !addr.IsAligned(uint64(pa), addr.Bytes4K) {
		return fmt.Errorf("physmem: free of unallocated block at %#x", uint64(pa))
	}
	delete(a.orderOf, base)
	a.allocated -= blockFrames(order)
	for order < MaxOrder {
		buddy := base ^ blockFrames(order)
		if _, free := a.free[order][buddy]; !free {
			break
		}
		delete(a.free[order], buddy)
		if buddy < base {
			base = buddy
		}
		order++
	}
	a.free[order][base] = struct{}{}
	return nil
}

func (a *refAllocator) LargestFreeOrder() int {
	for k := MaxOrder; k >= 0; k-- {
		if len(a.free[k]) > 0 {
			return k
		}
	}
	return -1
}

// oraclePair drives an Allocator and a refAllocator with the same
// operations and fails at the first observable difference.
type oraclePair struct {
	t    testing.TB
	a    *Allocator
	ref  *refAllocator
	live []addr.PA // blocks allocated and not yet freed
	dead []addr.PA // addresses freed at least once
}

func newOraclePair(t testing.TB, frames uint64) *oraclePair {
	return &oraclePair{t: t, a: New(frames), ref: newRef(frames)}
}

func (p *oraclePair) alloc(order int) {
	p.t.Helper()
	pa, err := p.a.Alloc(order)
	want, werr := p.ref.Alloc(order)
	op := fmt.Sprintf("Alloc(%d)", order)
	p.compareErr(op, err, werr)
	if err == nil {
		if pa != want {
			p.t.Fatalf("%s = %#x, reference %#x", op, uint64(pa), uint64(want))
		}
		p.live = append(p.live, pa)
	}
	p.compareCounters(op)
}

func (p *oraclePair) free(pa addr.PA) error {
	p.t.Helper()
	err := p.a.Free(pa)
	op := fmt.Sprintf("Free(%#x)", uint64(pa))
	p.compareErr(op, err, p.ref.Free(pa))
	if err == nil {
		for i, l := range p.live {
			if l == pa {
				p.live[i] = p.live[len(p.live)-1]
				p.live = p.live[:len(p.live)-1]
				break
			}
		}
		p.dead = append(p.dead, pa)
	}
	p.compareCounters(op)
	return err
}

func (p *oraclePair) compareErr(op string, err, want error) {
	p.t.Helper()
	if (err == nil) != (want == nil) {
		p.t.Fatalf("%s: err %v, reference err %v", op, err, want)
	}
	if errors.Is(err, ErrOutOfMemory) != errors.Is(want, ErrOutOfMemory) {
		p.t.Fatalf("%s: out-of-memory classification differs: %v vs reference %v", op, err, want)
	}
}

func (p *oraclePair) compareCounters(op string) {
	p.t.Helper()
	a, r := p.a, p.ref
	if a.Allocated() != r.allocated || a.Peak() != r.peak || a.FreeFrames() != r.frames-r.allocated {
		p.t.Fatalf("after %s: allocated/peak/free %d/%d/%d, reference %d/%d/%d", op,
			a.Allocated(), a.Peak(), a.FreeFrames(), r.allocated, r.peak, r.frames-r.allocated)
	}
	if got, want := a.LargestFreeOrder(), r.LargestFreeOrder(); got != want {
		p.t.Fatalf("after %s: LargestFreeOrder %d, reference %d", op, got, want)
	}
}

// step performs one operation chosen by the selector byte sel, with
// arg picking the order, block or address it acts on: allocations of
// every order up to MaxOrder+1 (one past the valid range), frees of
// live blocks, double frees, frees at unaligned addresses, and frees
// of frames that were never a block base.
func (p *oraclePair) step(sel, arg uint32) {
	p.t.Helper()
	switch {
	case sel%16 < 6:
		p.alloc(int(arg % 4))
	case sel%16 < 8:
		p.alloc(int(arg % (MaxOrder + 2)))
	case sel%16 < 12 && len(p.live) > 0:
		if err := p.free(p.live[int(arg)%len(p.live)]); err != nil {
			p.t.Fatalf("free of live block failed: %v", err)
		}
	case sel%16 == 12 && len(p.dead) > 0:
		p.free(p.dead[int(arg)%len(p.dead)])
	case sel%16 == 13 && len(p.live) > 0:
		pa := p.live[int(arg)%len(p.live)] + addr.PA(1+arg%(addr.Bytes4K-1))
		if p.free(pa) == nil {
			p.t.Fatalf("Free accepted unaligned address %#x", uint64(pa))
		}
	default:
		p.free(addr.PA(uint64(arg)%(p.ref.frames+64)) << FrameShift)
	}
}

// TestAllocatorMatchesReference checks the slice-based allocator against
// the map-based reference over random operation sequences: every
// returned address, error class and counter must agree after every op.
func TestAllocatorMatchesReference(t *testing.T) {
	for _, frames := range []uint64{64, 100, 1000, 1 << 16, 3 << 20} {
		t.Run(fmt.Sprint(frames), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				p := newOraclePair(t, frames)
				for i := 0; i < 3000; i++ {
					p.step(rng.Uint32(), rng.Uint32())
					if frames <= 1<<16 && i%64 == 0 {
						if err := p.a.CheckInvariants(); err != nil {
							t.Fatalf("seed %d op %d: %v", seed, i, err)
						}
					}
				}
				if err := p.a.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				for len(p.live) > 0 {
					p.free(p.live[len(p.live)-1])
				}
				if p.a.Allocated() != 0 || p.a.LargestFreeOrder() != New(frames).LargestFreeOrder() {
					t.Fatalf("seed %d: freeing everything left %d frames allocated, largest free order %d",
						seed, p.a.Allocated(), p.a.LargestFreeOrder())
				}
			}
		})
	}
}

// TestFreeUnalignedPA pins that Free rejects an address inside a frame
// rather than freeing the block at the frame's base.
func TestFreeUnalignedPA(t *testing.T) {
	a := New(64)
	if _, err := a.Alloc(0); err != nil {
		t.Fatal(err)
	}
	pa, err := a.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(pa + 0x123); err == nil {
		t.Fatalf("Free(%#x) of an unaligned address succeeded", uint64(pa+0x123))
	}
	if a.Allocated() != 2 {
		t.Fatalf("Allocated = %d after a rejected free, want 2", a.Allocated())
	}
	if err := a.Free(pa); err != nil {
		t.Fatalf("Free(%#x) of the block itself: %v", uint64(pa), err)
	}
}

// TestAllocAllocFree pins that the sequential 4 KB pattern an address
// space build issues costs no heap allocation per frame once the free
// lists have grown: only the order table allocates, one page per 512
// frames.
func TestAllocAllocFree(t *testing.T) {
	a := New(1 << 20)
	for i := 0; i < 1024; i++ {
		if _, err := a.Alloc(0); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(8192, func() {
		if _, err := a.Alloc(0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("sequential Alloc(0) averaged %v heap allocations, want 0", allocs)
	}
}
