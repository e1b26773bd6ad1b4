// Package physmem implements a buddy allocator over physical page
// frames.
//
// The allocator is the source of physical contiguity for the OS model in
// internal/vm: transparent huge pages need naturally aligned 2 MB blocks,
// and RMM's eager paging (Karakostas et al., ISCA 2015) asks for an
// arbitrarily large physically contiguous block per allocation request so
// that one range translation can map the whole region. A classic
// power-of-two buddy system provides both, with splitting on allocation
// and coalescing on free, so fragmentation behaviour is realistic rather
// than assumed away.
//
// Frame numbers are 4 KB-granular. Order k describes a block of 2^k
// contiguous frames aligned to 2^k frames (order 0 = 4 KB, order 9 =
// 2 MB, order 18 = 1 GB).
package physmem

import (
	"errors"
	"fmt"
	"math/bits"

	"xlate/internal/addr"
)

// FrameShift is the log2 of the allocation granule (one 4 KB frame).
const FrameShift = addr.Shift4K

// MaxOrder is the largest supported block order: 2^24 frames = 64 GB.
const MaxOrder = 24

// ErrOutOfMemory is wrapped by every Alloc failure for lack of a free
// block, so callers up the stack (demand paging in particular) can
// classify memory exhaustion with errors.Is.
var ErrOutOfMemory = errors.New("physmem: out of memory")

// Allocator is a buddy allocator over a contiguous physical frame range
// [0, frames). The zero value is not usable; use New.
type Allocator struct {
	frames uint64
	// free[k] holds the set of free block base frames of order k.
	// A map doubles as membership test for O(1) buddy coalescing.
	free [MaxOrder + 1]map[uint64]struct{}
	// orderOf records the order of every allocated block, keyed by base
	// frame, so Free does not need the caller to remember sizes.
	orderOf map[uint64]int

	allocated uint64 // frames currently allocated
	peak      uint64 // high-water mark of allocated frames
}

// New returns an allocator managing the given number of 4 KB frames.
// The frame count is rounded down to a multiple of the largest block
// that fits, and the whole range is seeded as free blocks.
func New(frames uint64) *Allocator {
	a := &Allocator{frames: frames, orderOf: make(map[uint64]int)}
	for k := range a.free {
		a.free[k] = make(map[uint64]struct{})
	}
	// Seed maximal aligned free blocks greedily from frame 0.
	base := uint64(0)
	for base < frames {
		k := MaxOrder
		for k > 0 && (base&blockMask(k) != 0 || base+blockFrames(k) > frames) {
			k--
		}
		if base+blockFrames(k) > frames {
			break // trailing fragment smaller than one frame cannot happen; k=0 fits
		}
		a.free[k][base] = struct{}{}
		base += blockFrames(k)
	}
	return a
}

func blockFrames(order int) uint64 { return 1 << order }
func blockMask(order int) uint64   { return (1 << order) - 1 }

// OrderForBytes returns the smallest block order whose size covers the
// given byte length.
func OrderForBytes(bytes uint64) int {
	if bytes == 0 {
		return 0
	}
	frames := (bytes + (1 << FrameShift) - 1) >> FrameShift
	if frames == 1 {
		return 0
	}
	return bits.Len64(frames - 1)
}

// Alloc allocates one naturally aligned block of 2^order frames and
// returns its base physical address. It fails if no block of that order
// or larger is free.
func (a *Allocator) Alloc(order int) (addr.PA, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("physmem: invalid order %d", order)
	}
	k := order
	for k <= MaxOrder && len(a.free[k]) == 0 {
		k++
	}
	if k > MaxOrder {
		return 0, fmt.Errorf("%w for order-%d block (%d frames allocated of %d)",
			ErrOutOfMemory, order, a.allocated, a.frames)
	}
	// Pick the lowest-based free block of the order. Taking an arbitrary
	// map key here would make frame placement — and therefore physical
	// contiguity, range-table contents and energy totals — depend on
	// Go's randomized map iteration order.
	base := ^uint64(0)
	for b := range a.free[k] { //eeatlint:allow determinism min-reduction over the free set is iteration-order-insensitive
		if b < base {
			base = b
		}
	}
	delete(a.free[k], base)
	// Split down to the requested order, freeing the upper buddies.
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

// Free releases a block previously returned by Alloc, coalescing with
// free buddies as far as possible.
func (a *Allocator) Free(pa addr.PA) error {
	base := uint64(pa) >> FrameShift
	order, ok := a.orderOf[base]
	if !ok {
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

// Frames returns the total number of frames managed.
func (a *Allocator) Frames() uint64 { return a.frames }

// Allocated returns the number of frames currently allocated.
func (a *Allocator) Allocated() uint64 { return a.allocated }

// Peak returns the high-water mark of allocated frames.
func (a *Allocator) Peak() uint64 { return a.peak }

// FreeFrames returns the number of frames currently free.
func (a *Allocator) FreeFrames() uint64 { return a.frames - a.allocated }

// LargestFreeOrder returns the order of the largest free block, or -1 if
// memory is exhausted. The OS model uses this to decide whether a huge
// page or an eager range of a given size can be satisfied contiguously.
func (a *Allocator) LargestFreeOrder() int {
	for k := MaxOrder; k >= 0; k-- {
		if len(a.free[k]) > 0 {
			return k
		}
	}
	return -1
}

// CheckInvariants validates internal consistency: free blocks are
// aligned, in range, non-overlapping with each other, and the free +
// allocated frame counts add up. Intended for tests.
func (a *Allocator) CheckInvariants() error {
	seen := make(map[uint64]int) // frame -> owner count
	var freeFrames uint64
	for k, set := range a.free {
		for base := range set { //eeatlint:allow determinism validation scan; any violation is reported regardless of visit order
			if base&blockMask(k) != 0 {
				return fmt.Errorf("free block %#x order %d misaligned", base, k)
			}
			if base+blockFrames(k) > a.frames {
				return fmt.Errorf("free block %#x order %d out of range", base, k)
			}
			for f := base; f < base+blockFrames(k); f++ {
				seen[f]++
				if seen[f] > 1 {
					return fmt.Errorf("frame %#x covered twice", f)
				}
			}
			freeFrames += blockFrames(k)
		}
	}
	var allocFrames uint64
	for base, k := range a.orderOf { //eeatlint:allow determinism validation scan; any violation is reported regardless of visit order
		for f := base; f < base+blockFrames(k); f++ {
			seen[f]++
			if seen[f] > 1 {
				return fmt.Errorf("allocated frame %#x also free", f)
			}
		}
		allocFrames += blockFrames(k)
	}
	if allocFrames != a.allocated {
		return fmt.Errorf("allocated count %d != sum of blocks %d", a.allocated, allocFrames)
	}
	if freeFrames+allocFrames != a.frames {
		return fmt.Errorf("free %d + allocated %d != total %d", freeFrames, allocFrames, a.frames)
	}
	return nil
}
