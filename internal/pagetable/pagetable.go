// Package pagetable implements the x86-64 four-level radix page table.
//
// The table is a real tree, not a flat map: the hardware page walker and
// the MMU paging-structure caches in internal/mmucache derive their
// memory-reference counts from the tree's levels, exactly as the paper's
// energy and performance models require (a full walk costs 4, 3 or 2
// memory references for 4 KB, 2 MB and 1 GB pages; a paging-structure
// cache hit skips the levels above the hit).
package pagetable

import (
	"fmt"

	"xlate/internal/addr"
)

// Mapping is a leaf translation: the physical frame backing a page of
// the given size.
type Mapping struct {
	Frame addr.PA
	Size  addr.PageSize
}

type slot struct {
	child *node   // non-leaf: next level table
	leaf  bool    // terminal mapping at this level
	frame addr.PA // valid when leaf
}

type node struct {
	slots [512]slot
	used  int // occupied slots, for pruning on unmap
}

// Table is one process's page table.
type Table struct {
	root *node
	// count of live leaf mappings per page size, for footprint reporting.
	count [addr.NumPageSizes]uint64
}

// New returns an empty page table.
func New() *Table { return &Table{root: &node{}} }

// sizeAtLevel is the inverse of addr.PageSize.LeafLevel.
func sizeAtLevel(l addr.Level) addr.PageSize { return addr.PageSize(addr.LvlPT - l) }

// Map installs a translation from the page of size s containing va to
// the physical frame. Both va and frame must be aligned to the page
// size. Mapping fails if the address is already covered by any existing
// mapping (of any size) or if a smaller-page subtree already occupies
// the slot a huge page needs.
func (t *Table) Map(va addr.VA, s addr.PageSize, frame addr.PA) error {
	if !addr.IsAligned(uint64(va), s.Bytes()) {
		return fmt.Errorf("pagetable: va %#x not aligned to %v", uint64(va), s)
	}
	if !addr.IsAligned(uint64(frame), s.Bytes()) {
		return fmt.Errorf("pagetable: frame %#x not aligned to %v", uint64(frame), s)
	}
	target := s.LeafLevel()
	n := t.root
	for lvl := addr.LvlPML4; ; lvl++ {
		sl := &n.slots[lvl.Index(va)]
		if lvl == target {
			if sl.leaf {
				return fmt.Errorf("pagetable: va %#x already mapped at %v", uint64(va), lvl)
			}
			if sl.child != nil {
				return fmt.Errorf("pagetable: va %#x: %v slot occupied by a smaller-page subtree", uint64(va), lvl)
			}
			sl.leaf = true
			sl.frame = frame
			n.used++
			t.count[s]++
			return nil
		}
		if sl.leaf {
			return fmt.Errorf("pagetable: va %#x already covered by a %v-level huge page", uint64(va), lvl)
		}
		if sl.child == nil {
			sl.child = &node{}
			n.used++
		}
		n = sl.child
	}
}

// Lookup translates va, returning the leaf mapping covering it.
func (t *Table) Lookup(va addr.VA) (Mapping, bool) {
	m, _, ok := t.descend(va)
	return m, ok
}

// descend follows va from the root to its leaf, returning the mapping
// and the level the descent stopped at: the leaf's level, or the level
// whose entry was empty.
func (t *Table) descend(va addr.VA) (Mapping, addr.Level, bool) {
	n := t.root
	for lvl := addr.LvlPML4; ; lvl++ {
		sl := &n.slots[lvl.Index(va)]
		if sl.leaf {
			return Mapping{Frame: sl.frame, Size: sizeAtLevel(lvl)}, lvl, true
		}
		if sl.child == nil || lvl == addr.LvlPT {
			return Mapping{}, lvl, false
		}
		n = sl.child
	}
}

// Unmap removes the leaf mapping covering va, pruning now-empty interior
// nodes. It returns the removed mapping.
func (t *Table) Unmap(va addr.VA) (Mapping, error) {
	type step struct {
		n  *node
		sl *slot
	}
	var path []step
	n := t.root
	for lvl := addr.LvlPML4; lvl <= addr.LvlPT; lvl++ {
		sl := &n.slots[lvl.Index(va)]
		path = append(path, step{n, sl})
		if sl.leaf {
			m := Mapping{Frame: sl.frame, Size: sizeAtLevel(lvl)}
			*sl = slot{}
			n.used--
			t.count[m.Size]--
			// Prune empty interior nodes bottom-up.
			for i := len(path) - 2; i >= 0; i-- {
				child := path[i+1].n
				if child.used != 0 {
					break
				}
				*path[i].sl = slot{}
				path[i].n.used--
			}
			return m, nil
		}
		if sl.child == nil {
			break
		}
		n = sl.child
	}
	return Mapping{}, fmt.Errorf("pagetable: va %#x not mapped", uint64(va))
}

// Translate performs a full virtual-to-physical translation of va.
func (t *Table) Translate(va addr.VA) (addr.PA, bool) {
	m, ok := t.Lookup(va)
	if !ok {
		return 0, false
	}
	return addr.Translate(m.Frame, va, m.Size), true
}

// Count returns the number of live leaf mappings of the given size.
func (t *Table) Count(s addr.PageSize) uint64 { return t.count[s] }

// MappedBytes returns the total bytes covered by live mappings.
func (t *Table) MappedBytes() uint64 {
	var b uint64
	for s := addr.Page4K; s <= addr.Page1G; s++ {
		b += t.count[s] * s.Bytes()
	}
	return b
}

// Walker models the hardware page-table walker. It is stateless; the
// caller supplies the level the walk can start from (as determined by
// the MMU paging-structure caches) and receives the mapping plus the
// number of page-table memory references the walk performed.
type Walker struct {
	table *Table
}

// NewWalker returns a walker over the given table.
func NewWalker(t *Table) *Walker { return &Walker{table: t} }

// Walk translates va starting from startLevel (LvlPML4 for a full walk;
// deeper levels when a paging-structure cache supplied the intermediate
// entry). It returns the leaf mapping, the number of memory references
// performed (one per level visited, including the leaf), and whether the
// translation exists. A failed walk still counts the references it made
// before faulting.
//
//eeat:hotpath
func (w *Walker) Walk(va addr.VA, startLevel addr.Level) (Mapping, int, bool) {
	// The tree is traversed structurally from the root, but only levels
	// >= startLevel cost memory references.
	m, stop, ok := w.table.descend(va)
	return m, max(0, int(stop-startLevel)+1), ok
}
