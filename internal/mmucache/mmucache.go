// Package mmucache models the MMU paging-structure caches that back the
// TLB hierarchy (Intel's Paging Structure Caches [27]; configuration per
// Bhattacharjee, MICRO 2013 [15] and the paper's Table 2).
//
// The cache consists of three individual structures, each holding
// non-leaf entries of one page-table level:
//
//   - PDE cache:   32 entries, 2-way — entries pointing to PT pages,
//     tagged by VA bits 47:21.
//   - PDPTE cache:  4 entries, fully associative — entries pointing to
//     PD pages, tagged by VA bits 47:30.
//   - PML4 cache:   2 entries, fully associative — entries pointing to
//     PDPT pages, tagged by VA bits 47:39.
//
// All three are probed in parallel after an L2 TLB miss. The deepest hit
// determines which page-table level the hardware walker starts from,
// eliminating the memory references for the levels above it.
package mmucache

import (
	"xlate/internal/addr"
	"xlate/internal/tlb"
)

// Structure names, used as energy-table keys.
const (
	NamePDE   = "MMU-cache-PDE"
	NamePDPTE = "MMU-cache-PDPTE"
	NamePML4  = "MMU-cache-PML4"
)

// Config fixes the geometry of the three structures.
type Config struct {
	PDEEntries   int
	PDEWays      int
	PDPTEEntries int // fully associative
	PML4Entries  int // fully associative
}

// DefaultConfig is the paper's Table 2 geometry.
func DefaultConfig() Config {
	return Config{PDEEntries: 32, PDEWays: 2, PDPTEEntries: 4, PML4Entries: 2}
}

// Cache is one core's set of paging-structure caches.
type Cache struct {
	pde   *tlb.SetAssoc
	pdpte *tlb.SetAssoc
	pml4  *tlb.SetAssoc
}

// New constructs the paging-structure caches with the given geometry,
// which core.Params.Validate checks.
func New(cfg Config) *Cache {
	return &Cache{
		pde:   tlb.NewSetAssoc(NamePDE, cfg.PDEEntries, cfg.PDEWays),
		pdpte: tlb.NewFullyAssoc(NamePDPTE, cfg.PDPTEEntries),
		pml4:  tlb.NewFullyAssoc(NamePML4, cfg.PML4Entries),
	}
}

// Probe looks up va in all three structures in parallel (each probe is
// counted for energy accounting regardless of outcome) and returns the
// page-table level the walk can start from: LvlPT after a PDE-cache hit,
// LvlPD after a PDPTE hit, LvlPDPT after a PML4 hit, or LvlPML4 when all
// miss (full walk).
//
//eeat:hotpath
func (c *Cache) Probe(va addr.VA) addr.Level {
	_, _, pdeHit := c.pde.Lookup(addr.LvlPD.Prefix(va))
	_, _, pdpteHit := c.pdpte.Lookup(addr.LvlPDPT.Prefix(va))
	_, _, pml4Hit := c.pml4.Lookup(addr.LvlPML4.Prefix(va))
	switch {
	case pdeHit:
		return addr.LvlPT
	case pdpteHit:
		return addr.LvlPD
	case pml4Hit:
		return addr.LvlPDPT
	}
	return addr.LvlPML4
}

// Fill inserts the non-leaf entries a completed walk read, given the
// level at which the walk terminated (LvlPT for a 4 KB page, LvlPD for
// 2 MB, LvlPDPT for 1 GB). Leaf entries are never cached here — they go
// to the TLBs. Re-inserting a resident entry refreshes recency without
// counting as a write.
//
//eeat:hotpath
func (c *Cache) Fill(va addr.VA, leaf addr.Level) {
	if leaf > addr.LvlPDPT {
		c.pdpte.Insert(tlb.Entry{Key: addr.LvlPDPT.Prefix(va)})
	}
	if leaf > addr.LvlPD {
		c.pde.Insert(tlb.Entry{Key: addr.LvlPD.Prefix(va)})
	}
	if leaf > addr.LvlPML4 {
		c.pml4.Insert(tlb.Entry{Key: addr.LvlPML4.Prefix(va)})
	}
}

// Flush invalidates all three structures.
func (c *Cache) Flush() {
	c.pde.Flush()
	c.pdpte.Flush()
	c.pml4.Flush()
}

// Structures returns the three underlying lookup structures (PDE, PDPTE,
// PML4 order) for stats and energy accounting. It returns a fixed array
// rather than a slice so per-walk callers stay allocation-free.
func (c *Cache) Structures() [3]*tlb.SetAssoc {
	return [3]*tlb.SetAssoc{c.pde, c.pdpte, c.pml4}
}

// ResetStats zeroes the counters on all three structures.
func (c *Cache) ResetStats() {
	c.pde.ResetStats()
	c.pdpte.ResetStats()
	c.pml4.ResetStats()
}
