// Package addr provides virtual/physical address arithmetic for the
// x86-64 4-level paging layout used throughout the simulator.
//
// The x86-64 architecture translates 48-bit canonical virtual addresses
// through a four-level radix tree (PML4 → PDPT → PD → PT). Translation
// can terminate early at the PDPT level (1 GB pages) or the PD level
// (2 MB pages); otherwise it terminates at the PT level (4 KB pages).
// This package defines the page sizes, the per-level index extraction,
// and the virtual-page-number (VPN) helpers the TLB structures index by.
package addr

import "fmt"

// VA is a virtual address. Only the low 48 bits are meaningful; the
// simulator does not model canonical sign extension because no structure
// in the translation path observes bits above 47.
type VA uint64

// PA is a physical address.
type PA uint64

// PageSize enumerates the three x86-64 translation granularities.
type PageSize int

// The supported page sizes, ordered from smallest to largest.
const (
	Page4K PageSize = iota
	Page2M
	Page1G
	numPageSizes
)

// NumPageSizes is the number of distinct page sizes the architecture
// supports. Useful for sizing per-page-size arrays.
const NumPageSizes = int(numPageSizes)

// Shift amounts and byte sizes for each page size.
const (
	Shift4K = 12
	Shift2M = 21
	Shift1G = 30

	Bytes4K = 1 << Shift4K
	Bytes2M = 1 << Shift2M
	Bytes1G = 1 << Shift1G
)

var shifts = [NumPageSizes]uint{Shift4K, Shift2M, Shift1G}

// Shift returns the log2 of the page size in bytes. It panics (index
// out of range) on an invalid page size.
func (s PageSize) Shift() uint { return shifts[s] }

// Bytes returns the page size in bytes.
func (s PageSize) Bytes() uint64 { return 1 << s.Shift() }

// LeafLevel returns the page-table level at which a page of size s
// terminates: PT for 4 KB, PD for 2 MB, PDPT for 1 GB.
func (s PageSize) LeafLevel() Level { return LvlPT - Level(s) }

// String returns the conventional name of the page size.
func (s PageSize) String() string {
	switch s {
	case Page4K:
		return "4KB"
	case Page2M:
		return "2MB"
	case Page1G:
		return "1GB"
	}
	return fmt.Sprintf("PageSize(%d)", int(s)) //eeatlint:allow hotpath fallback renders only corrupt sizes while formatting a diagnostic
}

// WalkRefs returns the number of memory references a full page walk
// needs to translate a page of this size when every paging-structure
// cache misses: 4 for 4 KB pages, 3 for 2 MB pages, and 2 for 1 GB pages
// (paper §3.2).
func (s PageSize) WalkRefs() int {
	switch s {
	case Page4K:
		return 4
	case Page2M:
		return 3
	case Page1G:
		return 2
	}
	panic(fmt.Sprintf("addr: invalid page size %d", int(s)))
}

// Level identifies a level of the page-table radix tree, from the root
// (PML4) down to the leaf page-table level (PT).
type Level int

// Radix-tree levels, root first.
const (
	LvlPML4 Level = iota
	LvlPDPT
	LvlPD
	LvlPT
	NumLevels int = 4
)

// String returns the architectural name of the level.
func (l Level) String() string {
	switch l {
	case LvlPML4:
		return "PML4"
	case LvlPDPT:
		return "PDPT"
	case LvlPD:
		return "PD"
	case LvlPT:
		return "PT"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// indexShift returns the bit position of the 9-bit index for the level:
// 39 at the PML4 down to 12 at the PT, nine bits per level.
func (l Level) indexShift() uint { return Shift4K + 9*uint(LvlPT-l) }

// Index extracts the 9-bit radix-tree index for the level from va.
func (l Level) Index(va VA) int {
	return int((uint64(va) >> l.indexShift()) & 0x1ff)
}

// Prefix returns the virtual-address bits above the level's index,
// i.e. the tag that identifies the page-table node the level's entry
// lives in. Two addresses with equal Prefix at level l read the same
// entry at level l. This is what the MMU paging-structure caches tag by.
func (l Level) Prefix(va VA) uint64 {
	return uint64(va) >> l.indexShift()
}

// VPN returns the virtual page number of va at page size s.
func VPN(va VA, s PageSize) uint64 { return uint64(va) >> s.Shift() }

// PageBase returns the first address of the page of size s containing va.
func PageBase(va VA, s PageSize) VA {
	return VA(uint64(va) &^ (s.Bytes() - 1))
}

// PageOffset returns the offset of va within its page of size s.
func PageOffset(va VA, s PageSize) uint64 {
	return uint64(va) & (s.Bytes() - 1)
}

// Translate combines a physical frame base with the page offset of va.
func Translate(frame PA, va VA, s PageSize) PA {
	return PA(uint64(frame)&^(s.Bytes()-1) | PageOffset(va, s))
}

// AlignUp rounds v up to the next multiple of align (a power of two).
func AlignUp(v uint64, align uint64) uint64 {
	return (v + align - 1) &^ (align - 1)
}

// AlignDown rounds v down to a multiple of align (a power of two).
func AlignDown(v uint64, align uint64) uint64 { return v &^ (align - 1) }

// IsAligned reports whether v is a multiple of align (a power of two).
func IsAligned(v uint64, align uint64) bool { return v&(align-1) == 0 }
