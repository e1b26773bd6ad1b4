// Package vm models the operating system's memory manager: virtual
// address-space layout, physical frame allocation, page-table
// population, transparent huge pages (THP), and RMM's eager paging.
//
// It is the oracle the simulator consults the way the paper's simulator
// consulted /proc/pid/pagemap: "what backs this virtual address — a 4 KB
// page, a 2 MB page, and is it inside a range translation?".
//
// Two policy knobs matter for fidelity:
//
//   - THPCoverage: real transparent huge pages are defeated by
//     fragmentation and alignment; the paper's Table 5 hit splits show
//     workloads with anywhere from ~4 % to ~70 % of L1 hits served by
//     2 MB entries. Coverage is the probability that an eligible,
//     aligned 2 MB chunk is actually backed by a huge page.
//   - EagerPaging: RMM allocates physical memory contiguously at request
//     time so each allocation becomes one range translation. The paper
//     evaluates *perfect* eager paging; provisioning enough physical
//     memory makes the buddy allocator always succeed, and the fallback
//     path (range splitting on contiguity failure) is also implemented.
package vm

import (
	"fmt"
	"math/rand"

	"xlate/internal/addr"
	"xlate/internal/pagetable"
	"xlate/internal/physmem"
	"xlate/internal/rmm"
)

// Policy selects how the OS backs memory.
type Policy struct {
	// THP enables transparent huge pages: aligned 2 MB chunks of a
	// region may be backed by a single 2 MB page.
	THP bool
	// THPCoverage is the probability an eligible chunk gets a huge page
	// (1.0 = ideal THP, 0 = always fragmented). Only meaningful with THP.
	THPCoverage float64
	// EagerPaging allocates each region physically contiguously and
	// records it in the range table (RMM).
	EagerPaging bool
	// GBPages backs 1 GB-aligned gigabyte chunks of sufficiently large
	// regions with 1 GB pages (explicitly reserved huge pages, not
	// transparent ones — hence no coverage probability).
	GBPages bool
}

// Config parameterizes an address space.
type Config struct {
	Policy    Policy
	PhysBytes uint64 // physical memory size; 0 selects 64 GB
	Seed      int64  // THP-coverage sampling seed
}

// Region is one virtual memory allocation.
type Region struct {
	Base addr.VA
	Size uint64 // bytes, 4 KB-granular
}

// End returns the first address past the region.
func (r Region) End() addr.VA { return r.Base + addr.VA(r.Size) }

// Contains reports whether va falls inside the region.
func (r Region) Contains(va addr.VA) bool { return va >= r.Base && va < r.End() }

// Stats summarizes what the OS has mapped.
type Stats struct {
	Regions     int
	Bytes4K     uint64 // bytes backed by 4 KB pages
	Bytes2M     uint64 // bytes backed by 2 MB pages
	Bytes1G     uint64 // bytes backed by 1 GB pages
	RangedBytes uint64 // bytes covered by range translations
	RangesMade  int    // ranges created (before table-side merging)
	RangeSplits int    // eager allocations that had to fall back to pieces
}

// AddressSpace is one process's memory image.
type AddressSpace struct {
	policy Policy
	pt     *pagetable.Table
	phys   *physmem.Allocator
	ranges *rmm.RangeTable
	rng    *rand.Rand

	nextVA      uint64
	blocks      map[addr.VA][]addr.PA // physical blocks owned by each region
	curCoverage float64               // THP coverage for the mmap in progress
	stats       Stats
}

// vaBase is where the allocator starts placing regions (1 TB), far from
// address zero so tests spot accidental zero-value addresses.
const vaBase = 1 << 40

// regionGuard separates consecutive regions so distinct allocations are
// never virtually contiguous (they would otherwise merge into one range
// and hide range-TLB capacity effects).
const regionGuard = addr.Bytes2M

// New creates an empty address space under the given configuration.
func New(cfg Config) *AddressSpace {
	phys := cfg.PhysBytes
	if phys == 0 {
		phys = 64 << 30
	}
	if cfg.Policy.THP && (cfg.Policy.THPCoverage < 0 || cfg.Policy.THPCoverage > 1) {
		panic(fmt.Sprintf("vm: THP coverage %v outside [0,1]", cfg.Policy.THPCoverage))
	}
	return &AddressSpace{
		policy: cfg.Policy,
		pt:     pagetable.New(),
		phys:   physmem.New(phys >> physmem.FrameShift),
		ranges: rmm.NewRangeTable(),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		nextVA: vaBase,
		blocks: make(map[addr.VA][]addr.PA),
	}
}

// PageTable exposes the process page table for the hardware walker.
func (as *AddressSpace) PageTable() *pagetable.Table { return as.pt }

// RangeTable exposes the process range table for the background walker.
func (as *AddressSpace) RangeTable() *rmm.RangeTable { return as.ranges }

// Phys exposes the physical allocator (for inspection in tests).
func (as *AddressSpace) Phys() *physmem.Allocator { return as.phys }

// Stats returns the mapping summary.
func (as *AddressSpace) Stats() Stats { return as.stats }

// Mmap allocates and maps a region of the given size (rounded up to
// 4 KB). Memory is populated eagerly: demand faults are irrelevant to
// steady-state TLB behaviour and eager paging requires request-time
// allocation anyway.
func (as *AddressSpace) Mmap(size uint64) (Region, error) {
	return as.MmapCoverage(size, -1)
}

// MmapCoverage is Mmap with a per-region THP coverage override: real
// transparent huge pages succeed or fail per region depending on
// allocation pattern, madvise hints and fragmentation, so workload
// models need region-level control. A negative coverage uses the
// policy's default; the override is ignored when the policy disables
// THP.
func (as *AddressSpace) MmapCoverage(size uint64, coverage float64) (Region, error) {
	if size == 0 {
		return Region{}, fmt.Errorf("vm: zero-size mmap")
	}
	if coverage > 1 {
		return Region{}, fmt.Errorf("vm: THP coverage %v > 1", coverage)
	}
	if coverage < 0 {
		coverage = as.policy.THPCoverage
	}
	as.curCoverage = coverage
	size = addr.AlignUp(size, addr.Bytes4K)
	align := uint64(addr.Bytes2M)
	if as.policy.GBPages && size >= addr.Bytes1G {
		align = addr.Bytes1G
	}
	base := addr.VA(addr.AlignUp(as.nextVA, align))
	as.nextVA = uint64(base) + size + regionGuard
	reg := Region{Base: base, Size: size}

	var err error
	if as.policy.EagerPaging {
		err = as.populateEager(reg)
	} else {
		err = as.populatePaged(reg)
	}
	if err != nil {
		return Region{}, err
	}
	as.stats.Regions++
	return reg, nil
}

// populateEager backs the region with one physically contiguous block
// (or, on contiguity failure, progressively smaller blocks, each its own
// range) and installs both the range translation and the redundant page
// mappings.
func (as *AddressSpace) populateEager(reg Region) error {
	remaining := reg.Size
	va := reg.Base
	for remaining > 0 {
		order := physmem.OrderForBytes(remaining)
		var pa addr.PA
		var err error
		for {
			pa, err = as.phys.Alloc(order)
			if err == nil {
				break
			}
			if order == 0 {
				return fmt.Errorf("vm: eager paging out of physical memory: %w", err)
			}
			order--
			as.stats.RangeSplits++
		}
		chunk := remaining
		if blockBytes := uint64(1) << (physmem.FrameShift + uint(order)); chunk > blockBytes {
			chunk = blockBytes
		}
		r := rmm.Range{Start: va, End: va + addr.VA(chunk), PABase: pa}
		if chunk >= rmm.MinRangeBytes {
			if err := as.ranges.Insert(r); err != nil {
				return fmt.Errorf("vm: range table insert: %w", err)
			}
			as.stats.RangesMade++
			as.stats.RangedBytes += chunk
		}
		if err := as.mapChunkPaged(va, chunk, true, pa); err != nil {
			return err
		}
		as.blocks[reg.Base] = append(as.blocks[reg.Base], pa)
		va += addr.VA(chunk)
		remaining -= chunk
	}
	return nil
}

// populatePaged backs the region page by page (with THP promotion when
// the policy allows), using independently allocated frames.
func (as *AddressSpace) populatePaged(reg Region) error {
	return as.mapChunkPaged(reg.Base, reg.Size, false, 0)
}

// mapChunkPaged installs page mappings for [va, va+bytes) under the THP
// and gigabyte-page policy. When prebacked is set the chunk is already
// backed contiguously from physical address base (eager paging) and each
// page maps at its offset from base; otherwise every page gets its own
// block from the buddy allocator, and the blocks — including any
// allocated before an error — are recorded once as owned by the chunk
// starting at va.
func (as *AddressSpace) mapChunkPaged(va addr.VA, bytes uint64, prebacked bool, base addr.PA) error {
	regionBase, end := va, va+addr.VA(bytes)
	owned := as.blocks[regionBase]
	had := len(owned)
	defer func() {
		if len(owned) > had {
			as.blocks[regionBase] = owned
		}
	}()
	for va < end {
		left := uint64(end - va)
		size, order, what := addr.Page4K, 0, "page"
		switch {
		case as.policy.GBPages && addr.IsAligned(uint64(va), addr.Bytes1G) && left >= addr.Bytes1G:
			size, order, what = addr.Page1G, 18, "gigabyte page"
		case as.policy.THP && addr.IsAligned(uint64(va), addr.Bytes2M) && left >= addr.Bytes2M &&
			as.rng.Float64() < as.curCoverage:
			size, order, what = addr.Page2M, 9, "huge page"
		}
		pa := base + addr.PA(va-regionBase)
		if !prebacked {
			var err error
			if pa, err = as.phys.Alloc(order); err != nil {
				return fmt.Errorf("vm: %s allocation: %w", what, err)
			}
			owned = append(owned, pa)
		}
		if err := as.pt.Map(va, size, pa); err != nil {
			return err
		}
		switch size {
		case addr.Page1G:
			as.stats.Bytes1G += addr.Bytes1G
		case addr.Page2M:
			as.stats.Bytes2M += addr.Bytes2M
		default:
			as.stats.Bytes4K += addr.Bytes4K
		}
		va += addr.VA(size.Bytes())
	}
	return nil
}

// Munmap tears down a region previously returned by Mmap: page-table
// entries, range translations, and physical blocks are all released.
func (as *AddressSpace) Munmap(reg Region) error {
	blocks, ok := as.blocks[reg.Base]
	if !ok && !as.policy.EagerPaging {
		return fmt.Errorf("vm: munmap of unknown region %#x", uint64(reg.Base))
	}
	va := reg.Base
	end := reg.End()
	for va < end {
		m, err := as.pt.Unmap(va)
		if err != nil {
			return err
		}
		switch m.Size {
		case addr.Page1G:
			as.stats.Bytes1G -= addr.Bytes1G
		case addr.Page2M:
			as.stats.Bytes2M -= addr.Bytes2M
		case addr.Page4K:
			as.stats.Bytes4K -= addr.Bytes4K
		}
		va += addr.VA(m.Size.Bytes())
	}
	for _, r := range as.ranges.Ranges() {
		if r.Start >= reg.Base && r.End <= end {
			if err := as.ranges.Remove(r.Start); err != nil {
				return err
			}
			as.stats.RangedBytes -= r.Bytes()
		}
	}
	for _, pa := range blocks {
		if err := as.phys.Free(pa); err != nil {
			return err
		}
	}
	delete(as.blocks, reg.Base)
	as.stats.Regions--
	return nil
}

// BreakHugePages demotes every 2 MB page inside the region back to 4 KB
// pages, modeling the OS responding to memory pressure (the event the
// paper cites as a reason Lite must reactivate ways, §4.2.2). The
// physical frames are reused in place, so range translations survive.
func (as *AddressSpace) BreakHugePages(reg Region) (int, error) {
	broken := 0
	for va := reg.Base; va < reg.End(); {
		m, ok := as.pt.Lookup(va)
		if !ok {
			return broken, fmt.Errorf("vm: hole at %#x", uint64(va))
		}
		if m.Size != addr.Page2M {
			va += addr.VA(m.Size.Bytes())
			continue
		}
		if _, err := as.pt.Unmap(va); err != nil {
			return broken, err
		}
		for off := uint64(0); off < addr.Bytes2M; off += addr.Bytes4K {
			if err := as.pt.Map(va+addr.VA(off), addr.Page4K, m.Frame+addr.PA(off)); err != nil {
				return broken, err
			}
		}
		as.stats.Bytes2M -= addr.Bytes2M
		as.stats.Bytes4K += addr.Bytes2M
		broken++
		va += addr.VA(addr.Bytes2M)
	}
	return broken, nil
}

// EnsureMapped demand-maps the 2 MB-aligned chunk containing va if it is
// not already backed, applying the policy (THP coverage draw, eager
// paging). It reports whether a fault was taken. This is the path that
// lets externally recorded traces — whose address layout the OS never
// saw — drive the simulator: memory materializes chunk by chunk on
// first touch.
//
// Demand-mapped chunks are not Regions: they cannot be munmapped, and
// under eager paging each chunk becomes its own range translation
// (merged by the range table only when physically contiguous), which
// approximates eager paging at chunk granularity.
//
//eeat:coldpath page-fault handling; faults are rare at architecture scale and their cost is charged explicitly
func (as *AddressSpace) EnsureMapped(va addr.VA) (bool, error) {
	if _, ok := as.pt.Lookup(va); ok {
		return false, nil
	}
	base := addr.VA(addr.AlignDown(uint64(va), addr.Bytes2M))
	as.curCoverage = as.policy.THPCoverage
	if as.policy.EagerPaging {
		pa, err := as.phys.Alloc(9) // one 2 MB block
		if err != nil {
			return false, fmt.Errorf("vm: demand fault at %#x: %w", uint64(va), err)
		}
		r := rmm.Range{Start: base, End: base + addr.VA(addr.Bytes2M), PABase: pa}
		if err := as.ranges.Insert(r); err != nil {
			return false, fmt.Errorf("vm: demand range insert: %w", err)
		}
		as.stats.RangesMade++
		as.stats.RangedBytes += addr.Bytes2M
		as.blocks[base] = append(as.blocks[base], pa)
		if err := as.mapChunkPaged(base, addr.Bytes2M, true, pa); err != nil {
			return false, err
		}
		return true, nil
	}
	if err := as.mapChunkPaged(base, addr.Bytes2M, false, 0); err != nil {
		return false, err
	}
	return true, nil
}
