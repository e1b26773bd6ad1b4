package audit

import (
	"math"

	"xlate/internal/addr"
	"xlate/internal/energy"
	"xlate/internal/tlb"
)

// conservationRelTol bounds the acceptable relative drift between the
// shadow energy total (a single running sum over every charge) and the
// per-account breakdown's sum. The two accumulate the same charges in
// different orders, so only float reassociation error separates them.
const conservationRelTol = 1e-6

// decodeMixed splits a size-qualified key (mixKey in internal/core: the
// page size in the top bits, the VPN below) back into the page base
// address and size. ok is false when the size bits are not a valid page
// size — itself a corruption signal.
func decodeMixed(key uint64) (va addr.VA, sz addr.PageSize, ok bool) {
	sz = addr.PageSize(key >> 60)
	if sz > addr.Page1G {
		return 0, sz, false
	}
	return addr.VA((key & (1<<60 - 1)) << sz.Shift()), sz, true
}

// AuditNow runs a full structural audit immediately: per-structure
// invariants, cross-structure coherence against the page and range
// tables, Lite way-mask consistency, and energy-ledger conservation.
// The simulator calls it on the configured cadence, after every
// InvalidateRegion, and at run end.
//
//eeat:coldpath full structural audit; runs once per CheckEveryRefs accesses
func (a *Auditor) AuditNow(b *energy.Breakdown, shadowPJ float64) {
	a.stats.StructuralAudits++

	// Per-structure invariants.
	for _, t := range a.st.L1 {
		a.checkInvariants(t.TLB)
	}
	a.checkInvariants(a.st.L2)
	for _, t := range a.st.MMU {
		a.checkInvariants(t)
	}
	for _, t := range []*tlb.RangeTLB{a.st.L1Rng, a.st.L2Rng} {
		if t == nil {
			continue
		}
		if err := t.CheckInvariants(); err != nil {
			a.violate(CheckStructure, t.Name(), 0, "%v", err)
		}
	}
	if a.st.RT != nil {
		if err := a.st.RT.CheckInvariants(); err != nil {
			a.violate(CheckStructure, "range-table", 0, "%v", err)
		}
	}

	// Page-TLB / page-table coherence. The MMU paging-structure caches
	// are skipped: they hold interior nodes, not leaf translations.
	for _, t := range a.st.L1 {
		a.checkPageTLB(t)
	}
	if a.st.L2 != nil {
		a.checkPageTLB(PageTLB{TLB: a.st.L2, Mixed: true})
	}

	// Range-TLB / range-table coherence.
	a.checkRangeTLB(a.st.L1Rng)
	a.checkRangeTLB(a.st.L2Rng)

	// Lite way-mask consistency.
	if a.st.Lite != nil {
		if err := a.st.Lite.CheckInvariants(); err != nil {
			a.violate(CheckLiteWays, "lite", 0, "%v", err)
		}
	}

	// Energy-ledger conservation.
	total := b.Total()
	if math.Abs(total-shadowPJ) > conservationRelTol*math.Max(math.Abs(total), math.Abs(shadowPJ))+pjTolerance {
		a.violate(CheckConservation, "", 0,
			"breakdown sums to %.6f pJ, shadow total of all charges is %.6f pJ", total, shadowPJ)
	}
}

// checkInvariants runs a page TLB's own invariants, if it is present.
func (a *Auditor) checkInvariants(t *tlb.SetAssoc) {
	if t == nil {
		return
	}
	if err := t.CheckInvariants(); err != nil {
		a.violate(CheckStructure, t.Name(), 0, "%v", err)
	}
}

// checkPageTLB verifies every entry of a page TLB against the page
// table.
func (a *Auditor) checkPageTLB(t PageTLB) {
	t.TLB.ForEach(func(e tlb.Entry) {
		va, sz, ok := addr.VA(e.Key<<t.Size.Shift()), t.Size, true
		if t.Mixed {
			va, sz, ok = decodeMixed(e.Key)
		}
		if !ok {
			a.violate(CheckTLBCoherence, t.TLB.Name(), 0,
				"entry key %#x encodes invalid page size %d", e.Key, int(sz))
			return
		}
		a.checkCachedPage(t.TLB.Name(), e, va, sz)
	})
}

// checkCachedPage verifies one cached page translation: the page table
// must map the same address at the same size to the same frame. This
// relies on the simulator's shootdown discipline — every mapping change
// is paired with an InvalidateRegion — so any disagreement is a stale
// or corrupted entry.
func (a *Auditor) checkCachedPage(name string, e tlb.Entry, va addr.VA, sz addr.PageSize) {
	m, ok := a.st.PT.Lookup(va)
	if !ok {
		a.violate(CheckTLBCoherence, name, va,
			"cached translation for an unmapped %v page", sz)
		return
	}
	if m.Size != sz {
		a.violate(CheckTLBCoherence, name, va,
			"cached as a %v page but the page table maps %v", sz, m.Size)
		return
	}
	if e.Frame != uint64(m.Frame) {
		a.violate(CheckTLBCoherence, name, va,
			"cached frame %#x, page table says %#x", e.Frame, uint64(m.Frame))
	}
}

// checkRangeTLB verifies every cached range translation against the
// range table: the cached range must lie inside a table range (table
// ranges can grow by coalescing, so the cached one may be a strict
// subrange) and must translate identically.
func (a *Auditor) checkRangeTLB(t *tlb.RangeTLB) {
	if t == nil || a.st.RT == nil {
		return
	}
	t.ForEach(func(r tlb.RangeEntry) {
		tr, ok := a.st.RT.Lookup(r.Start)
		if !ok || tr.End < r.End {
			a.violate(CheckRangeCoherence, t.Name(), r.Start,
				"cached range [%#x,%#x) not covered by the range table",
				uint64(r.Start), uint64(r.End))
			return
		}
		if tr.Translate(r.Start) != r.PABase {
			a.violate(CheckRangeCoherence, t.Name(), r.Start,
				"cached range maps start to %#x, range table maps it to %#x",
				uint64(r.PABase), uint64(tr.Translate(r.Start)))
		}
	})
}
