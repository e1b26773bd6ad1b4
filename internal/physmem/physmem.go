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
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

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
	// free[k] holds the base frames of the free order-k blocks in
	// descending order, so the lowest base — the one Alloc hands out —
	// is the last element and buddies are found by binary search.
	free [MaxOrder + 1][]uint64
	// orders records the order of every allocated block by base frame,
	// so Free does not need the caller to remember sizes.
	orders orderTable

	allocated uint64 // frames currently allocated
	peak      uint64 // high-water mark of allocated frames
}

// New returns an allocator managing the given number of 4 KB frames.
// The whole range is seeded as free blocks: maximal naturally aligned
// blocks greedily from frame 0, so a count that is not a power of two
// leaves a tail of successively smaller blocks.
func New(frames uint64) *Allocator {
	a := &Allocator{frames: frames}
	// Bases rise, so each list is built ascending and reversed once.
	base := uint64(0)
	for base < frames {
		k := MaxOrder
		for k > 0 && (base&blockMask(k) != 0 || base+blockFrames(k) > frames) {
			k--
		}
		a.free[k] = append(a.free[k], base)
		base += blockFrames(k)
	}
	for _, list := range a.free {
		slices.Reverse(list)
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
// or larger is free. The block is always the lowest-based free block of
// the smallest order that fits, so placement is a pure function of the
// operation sequence.
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
	list := a.free[k]
	base := list[len(list)-1]
	a.free[k] = list[:len(list)-1]
	// Split down to the requested order, freeing the upper buddies. Every
	// order in [order, k) was empty, so each push keeps its list sorted.
	for k > order {
		k--
		a.free[k] = append(a.free[k], base+blockFrames(k))
	}
	a.orders.set(base, order)
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
	order := -1
	if addr.IsAligned(uint64(pa), addr.Bytes4K) && base < a.frames {
		order = a.orders.get(base)
	}
	if order < 0 {
		return fmt.Errorf("physmem: free of unallocated block at %#x", uint64(pa))
	}
	a.orders.clear(base)
	a.allocated -= blockFrames(order)
	for order < MaxOrder {
		buddy := base ^ blockFrames(order)
		i, found := slices.BinarySearchFunc(a.free[order], buddy, descending)
		if !found {
			break
		}
		a.free[order] = slices.Delete(a.free[order], i, i+1)
		base &^= blockFrames(order)
		order++
	}
	i, _ := slices.BinarySearchFunc(a.free[order], base, descending)
	a.free[order] = slices.Insert(a.free[order], i, base)
	return nil
}

// descending orders a free list for slices.BinarySearchFunc: highest
// base first.
func descending(base, target uint64) int { return cmp.Compare(target, base) }

// orderPageShift sizes one order-table page: 2^9 = 512 frames (2 MB).
const orderPageShift = 9

// orderTable maps allocated block base frames to block orders. It is a
// sparse two-level array: pages of 512 entries, each holding order+1 (0
// for "no block starts here"), allocated on first use and indexed by
// frame>>9. Alloc hands out the lowest free bases first, so the pages
// in use cluster at the bottom of the frame range and the directory
// stays short; a flat per-frame array would cost 1 MB per 4 GB managed.
type orderTable struct {
	pages []*[1 << orderPageShift]int8
}

// get returns the order of the block based at frame, or -1.
func (t *orderTable) get(frame uint64) int {
	i := frame >> orderPageShift
	if i >= uint64(len(t.pages)) || t.pages[i] == nil {
		return -1
	}
	return int(t.pages[i][frame&blockMask(orderPageShift)]) - 1
}

func (t *orderTable) set(frame uint64, order int) {
	i := frame >> orderPageShift
	if i >= uint64(len(t.pages)) {
		t.pages = append(t.pages, make([]*[1 << orderPageShift]int8, i+1-uint64(len(t.pages)))...)
	}
	if t.pages[i] == nil {
		t.pages[i] = new([1 << orderPageShift]int8)
	}
	t.pages[i][frame&blockMask(orderPageShift)] = int8(order + 1)
}

func (t *orderTable) clear(frame uint64) {
	t.pages[frame>>orderPageShift][frame&blockMask(orderPageShift)] = 0
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

// CheckInvariants validates internal consistency: free lists are
// strictly descending, every block is aligned and in range, no two
// blocks overlap, and the free + allocated frame counts add up.
// Intended for tests.
func (a *Allocator) CheckInvariants() error {
	type block struct {
		base  uint64
		order int
		free  bool
	}
	var blocks []block
	for k, list := range a.free {
		for i, base := range list {
			if i > 0 && list[i-1] <= base {
				return fmt.Errorf("free list of order %d not strictly descending at %#x", k, base)
			}
			blocks = append(blocks, block{base, k, true})
		}
	}
	for i, page := range a.orders.pages {
		if page == nil {
			continue
		}
		for j, v := range page {
			if v != 0 {
				blocks = append(blocks, block{uint64(i)<<orderPageShift | uint64(j), int(v) - 1, false})
			}
		}
	}
	slices.SortFunc(blocks, func(x, y block) int { return cmp.Compare(x.base, y.base) })
	var freeFrames, allocFrames, next uint64
	for _, b := range blocks {
		if b.base&blockMask(b.order) != 0 {
			return fmt.Errorf("block %#x order %d misaligned", b.base, b.order)
		}
		if b.base+blockFrames(b.order) > a.frames {
			return fmt.Errorf("block %#x order %d out of range", b.base, b.order)
		}
		if b.base < next {
			return fmt.Errorf("block %#x order %d overlaps the block before it", b.base, b.order)
		}
		next = b.base + blockFrames(b.order)
		if b.free {
			freeFrames += blockFrames(b.order)
		} else {
			allocFrames += blockFrames(b.order)
		}
	}
	if allocFrames != a.allocated {
		return fmt.Errorf("allocated count %d != sum of blocks %d", a.allocated, allocFrames)
	}
	if freeFrames+allocFrames != a.frames {
		return fmt.Errorf("free %d + allocated %d != total %d", freeFrames, allocFrames, a.frames)
	}
	return nil
}
