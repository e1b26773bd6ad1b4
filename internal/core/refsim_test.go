package core_test

// This file is a reference MMU written from the paper (§3–§5, Figures 1,
// 6 and 7, Tables 1–3) and DESIGN.md §4, independently of the
// simulator it checks: it imports none of core, tlb, lite, mmucache or
// rmm (TestReferenceImportsStayIndependent enforces that). It reads the
// address space only for its mappings and ranges, and Table 2 only for
// per-probe prices. Every cache is a plain slice-of-slices LRU, energy
// is a count of events priced once at the end, and Lite's interval
// decisions are re-derived from Figure 7.

import (
	"math/rand"

	"xlate/internal/addr"
	"xlate/internal/energy"
	"xlate/internal/trace"
	"xlate/internal/vm"
)

// refConfig is one of the paper's configurations (§5) and the two
// extensions of DESIGN.md §4, described by the structures it has.
type refConfig struct {
	l1        []addr.PageSize // split L1 page TLBs in probe order; empty for one mixed L1
	l1Range   bool            // 4-entry L1-range TLB
	l2Range   bool            // 32-entry L2-range TLB and background range-table walks
	lite      bool            // Lite resizes every L1 page TLB
	absEps    bool            // Lite's ε is 0.1 MPKI absolute rather than 12.5 % relative
	predictor bool            // a fallible page-size predictor indexes the mixed L1
	thp       bool            // transparent huge pages (50 % coverage)
	eager     bool            // eager paging creates range translations
}

// refConfigs describes each configuration by its paper name.
var refConfigs = map[string]refConfig{
	// (i) 4 KB pages only: no huge pages, so no L1-2MB TLB. Figure 1's
	// L1-1GB TLB is present but disabled until a 1 GB walk.
	"4KB": {l1: []addr.PageSize{addr.Page4K, addr.Page1G}},
	// (ii) THP: parallel L1-4KB and L1-2MB TLBs.
	"THP": {l1: []addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G}, thp: true},
	// (iii) THP plus Lite.
	"TLB_Lite": {l1: []addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G}, thp: true, lite: true},
	// (iv) THP plus an L2-range TLB under eager paging.
	"RMM": {l1: []addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G}, thp: true, eager: true, l2Range: true},
	// (v) a mixed L1 indexed by a perfect, free page-size predictor.
	"TLB_PP": {thp: true},
	// (vi) 4 KB pages, range TLBs at both levels, Lite on the page TLBs.
	"RMM_Lite": {l1: []addr.PageSize{addr.Page4K, addr.Page1G}, eager: true, l1Range: true, l2Range: true,
		lite: true, absEps: true},
	// Extensions: TLB_Pred's real predictor, and the §6.1 combination of
	// range TLBs, a predicted mixed L1 and Lite.
	"TLB_Pred": {thp: true, predictor: true},
	"Combined": {thp: true, eager: true, l1Range: true, l2Range: true, lite: true, absEps: true, predictor: true},
}

// policy is the OS memory policy the configuration runs on.
func (c refConfig) policy() vm.Policy {
	p := vm.Policy{THP: c.thp, EagerPaging: c.eager}
	if c.thp {
		p.THPCoverage = 0.5
	}
	return p
}

// refTag names one cached translation: a page of a size, or a
// paging-structure entry (size unused). The low bits of n pick the set.
type refTag struct {
	size addr.PageSize
	n    uint64
}

// refLRU is a set-associative cache with true LRU per set: each set is
// a slice ordered most recently used first, so an entry's index is its
// LRU-stack position. Lite disables ways by shrinking active.
type refLRU struct {
	name         string
	acc          energy.Account
	sets         [][]refTag
	ways, active int
	// reads[w] and writes[w] count probes and fills at w active ways.
	reads, writes []uint64
	// wayPriced: Table 2 prices the cache per active way count (the L1
	// page TLBs); the others have one price, registered at 0 ways.
	wayPriced bool
}

func newRefLRU(name string, acc energy.Account, entries, ways int) *refLRU {
	return &refLRU{name: name, acc: acc, sets: make([][]refTag, entries/ways), ways: ways, active: ways,
		reads: make([]uint64, ways+1), writes: make([]uint64, ways+1)}
}

func (c *refLRU) set(t refTag) *[]refTag { return &c.sets[t.n%uint64(len(c.sets))] }

// lookup probes for t, returning its LRU position before the probe (and
// making it MRU), or -1 on a miss.
func (c *refLRU) lookup(t refTag) int {
	c.reads[c.active]++
	s := c.set(t)
	for i, e := range *s {
		if e == t {
			copy((*s)[1:i+1], (*s)[:i])
			(*s)[0] = t
			return i
		}
	}
	return -1
}

// insert makes t MRU, evicting the set's LRU entry when the set is full
// at the active ways, and reports whether t was new.
func (c *refLRU) insert(t refTag) bool {
	s := c.set(t)
	for i, e := range *s {
		if e == t {
			copy((*s)[1:i+1], (*s)[:i])
			(*s)[0] = t
			return false
		}
	}
	if len(*s) < c.active {
		*s = append(*s, refTag{})
	}
	copy((*s)[1:], *s) // the LRU entry falls off a full set
	(*s)[0] = t
	return true
}

// resize runs the cache at w ways; disabled ways lose their contents
// (§4.2.3: TLB entries are never dirty).
func (c *refLRU) resize(w int) {
	for i, s := range c.sets {
		if len(s) > w {
			c.sets[i] = s[:w]
		}
	}
	c.active = w
}

// refRange is a range translation [start, end).
type refRange struct{ start, end addr.VA }

// refRangeTLB is a fully associative LRU of range translations, most
// recently used first.
type refRangeTLB struct {
	ents          []refRange
	cap           int
	reads, writes uint64
}

func (r *refRangeTLB) lookup(va addr.VA) (refRange, bool) {
	r.reads++
	for i, e := range r.ents {
		if va >= e.start && va < e.end {
			copy(r.ents[1:i+1], r.ents[:i])
			r.ents[0] = e
			return e, true
		}
	}
	return refRange{}, false
}

func (r *refRangeTLB) insert(e refRange) {
	r.writes++
	i := 0
	for i < len(r.ents) && r.ents[i] != e {
		i++
	}
	if i == len(r.ents) && len(r.ents) < r.cap {
		r.ents = append(r.ents, e)
	}
	// Shift the entries before e, or all but the LRU one, down a slot.
	copy(r.ents[1:min(i+1, len(r.ents))], r.ents)
	r.ents[0] = e
}

// refL1 is one L1 page TLB with its §3.1 enable bit and its Lite
// monitor: hits per LRU position this interval, and lookups per active
// way count (index log2(ways)) over the run.
type refL1 struct {
	*refLRU
	size      addr.PageSize // page size held; unused for the mixed L1
	enabled   bool
	hitsAt    []uint64
	lookupsAt []uint64
}

// refPredictor is DESIGN.md §4's page-size predictor: 2-bit saturating
// counters indexed by a hash of the 2 MB region number.
type refPredictor struct {
	counters                []int
	predictions, mispredict uint64
}

func (p *refPredictor) slot(va addr.VA) *int {
	r := uint64(va) >> 21
	r ^= r >> 13
	r *= 0x9e3779b97f4a7c15
	return &p.counters[(r>>32)%uint64(len(p.counters))]
}

// refMMU is the reference hierarchy of one configuration.
type refMMU struct {
	cfg refConfig
	as  *vm.AddressSpace
	db  *energy.DB

	l1           []*refL1
	l1Rng, l2Rng *refRangeTLB
	l2           *refLRU
	pde, pdpte   *refLRU
	pml4         *refLRU
	ranges       []refRange
	pred         *refPredictor

	// Lite interval state (Figure 7).
	rng           *rand.Rand
	interval      uint64
	intervalInstr uint64
	intervalMiss  uint64
	prevMPKI      float64
	hasPrev       bool
	waysHistory   [][]int // active ways of every L1 page TLB after each interval

	res         refResult
	walkRefs    uint64
	rngWalkRefs uint64
}

// refResult is the reference's account of a run, field for field the
// counters core.Result reports.
type refResult struct {
	Instructions, MemRefs, L1Misses, L2Misses, WalkRefs, CyclesTLBMiss uint64
	Hits4K, Hits2M, Hits1G, HitsRange                                  uint64
	Energy                                                             energy.Breakdown
	LiteLookupShare                                                    [][]float64
	LiteResizes, LiteReactivations                                     uint64
	MispredictRate                                                     float64
}

// newRefMMU builds the configuration's hierarchy at Table 1 and Table 2
// geometry. liteSeed and liteInterval parameterize Lite.
func newRefMMU(cfg refConfig, as *vm.AddressSpace, liteSeed int64, liteInterval uint64) *refMMU {
	m := &refMMU{cfg: cfg, as: as, db: energy.Table2(),
		l2:       newRefLRU(energy.L2Page, energy.AccL2Page, 512, 4),
		pde:      newRefLRU(energy.PDE, energy.AccMMUCache, 32, 2),
		pdpte:    newRefLRU(energy.PDPTE, energy.AccMMUCache, 4, 4),
		pml4:     newRefLRU(energy.PML4, energy.AccMMUCache, 2, 2),
		rng:      rand.New(rand.NewSource(liteSeed)),
		interval: liteInterval,
	}
	newL1 := func(name string, acc energy.Account, size addr.PageSize, entries, ways int) {
		t := &refL1{refLRU: newRefLRU(name, acc, entries, ways), size: size,
			enabled: size == addr.Page4K, hitsAt: make([]uint64, ways), lookupsAt: make([]uint64, log2(ways)+1)}
		t.wayPriced = true
		m.l1 = append(m.l1, t)
	}
	if len(cfg.l1) == 0 {
		newL1(energy.L14KB, energy.AccL1Page4K, addr.Page4K, 64, 4)
	}
	for _, size := range cfg.l1 {
		switch size {
		case addr.Page4K:
			newL1(energy.L14KB, energy.AccL1Page4K, size, 64, 4)
		case addr.Page2M:
			newL1(energy.L12MB, energy.AccL1Page2M, size, 32, 4)
		case addr.Page1G:
			newL1(energy.L11GB, energy.AccL1Page1G, size, 4, 4)
		}
	}
	if cfg.l1Range {
		m.l1Rng = &refRangeTLB{cap: 4}
	}
	if cfg.l2Range {
		m.l2Rng = &refRangeTLB{cap: 32}
		for _, r := range as.RangeTable().Ranges() {
			m.ranges = append(m.ranges, refRange{r.Start, r.End})
		}
	}
	if cfg.predictor {
		m.pred = &refPredictor{counters: make([]int, 512)}
	}
	return m
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n /= 2
		k++
	}
	return k
}

// run feeds references from src until instrs instructions have run.
func (m *refMMU) run(src trace.RefSource, instrs uint64) refResult {
	for m.res.Instructions < instrs {
		r := src.Next()
		m.access(r.VA, r.Instrs)
	}
	return m.result()
}

// mixed reports whether the configuration has one L1 for every size.
func (m *refMMU) mixed() bool { return len(m.cfg.l1) == 0 }

func (m *refMMU) access(va addr.VA, instrs uint64) {
	m.res.Instructions += instrs
	m.res.MemRefs++
	pg, ok := m.as.PageTable().Lookup(va)
	if !ok {
		panic("reference: unmapped reference")
	}
	if m.cfg.lite {
		for _, t := range m.l1 {
			t.lookupsAt[log2(t.active)]++
		}
	}
	if m.pred != nil {
		c := m.pred.slot(va)
		m.pred.predictions++
		guess := addr.Page4K
		if *c >= 2 {
			guess = addr.Page2M
		}
		if guess != pg.Size {
			// The wrongly indexed probe reads the mixed L1 and costs a cycle.
			m.l1[0].lookup(refTag{guess, addr.VPN(va, guess)})
			m.pred.mispredict++
			m.res.CyclesTLBMiss++
		}
		if pg.Size == addr.Page2M {
			*c = min(*c+1, 3)
		} else {
			*c = max(*c-1, 0)
		}
	}

	// L1: every enabled page TLB and the L1-range TLB in parallel.
	pageHit := false
	for _, t := range m.l1 {
		if !t.enabled {
			continue
		}
		size := t.size
		if m.mixed() {
			size = pg.Size
		}
		if pos := t.lookup(refTag{size, addr.VPN(va, size)}); pos >= 0 {
			pageHit = true
			t.hitsAt[pos]++
		}
	}
	rangeHit := false
	if m.l1Rng != nil {
		_, rangeHit = m.l1Rng.lookup(va)
	}
	switch {
	case rangeHit:
		m.res.HitsRange++
	case pageHit && pg.Size == addr.Page4K:
		m.res.Hits4K++
	case pageHit && pg.Size == addr.Page2M:
		m.res.Hits2M++
	case pageHit:
		m.res.Hits1G++
	default:
		m.l1Miss(va, pg.Size)
	}
	if m.cfg.lite {
		m.intervalInstr += instrs
		for m.intervalInstr >= m.interval {
			m.intervalInstr -= m.interval
			m.endInterval()
		}
	}
}

// l1Miss is Table 3's 7-cycle L2 access: the L2 page and range TLBs in
// parallel, then the page walk if both miss.
func (m *refMMU) l1Miss(va addr.VA, size addr.PageSize) {
	m.res.L1Misses++
	m.intervalMiss++
	m.res.CyclesTLBMiss += 7
	tag := refTag{size, addr.VPN(va, size)}
	l2Hit := m.l2.lookup(tag) >= 0
	var r refRange
	rHit := false
	if m.l2Rng != nil {
		r, rHit = m.l2Rng.lookup(va)
	}
	if !l2Hit && !rHit {
		m.walk(va, size, tag)
		return
	}
	m.fillL1(va, size)
	if rHit && m.l1Rng != nil {
		m.l1Rng.insert(r)
	}
}

// walk is the 50-cycle page walk (Table 3): the paging-structure caches
// skip the levels above their deepest hit, the walk fills them, the L2
// and the L1, and RMM walks the range table in the background.
func (m *refMMU) walk(va addr.VA, size addr.PageSize, tag refTag) {
	m.res.L2Misses++
	m.res.CyclesTLBMiss += 50
	pdeHit := m.pde.lookup(refTag{n: uint64(va) >> 21}) >= 0
	pdpteHit := m.pdpte.lookup(refTag{n: uint64(va) >> 30}) >= 0
	pml4Hit := m.pml4.lookup(refTag{n: uint64(va) >> 39}) >= 0
	// Levels PML4 = 0 … PT = 3; the leaf of a 4 KB page is PT.
	leaf := 3 - int(size)
	start := 0
	switch {
	case pdeHit:
		start = 3
	case pdpteHit:
		start = 2
	case pml4Hit:
		start = 1
	}
	m.walkRefs += uint64(max(0, leaf-start+1))
	fill := func(c *refLRU, n uint64) {
		if c.insert(refTag{n: n}) {
			c.writes[c.active]++
		}
	}
	if leaf >= 2 {
		fill(m.pdpte, uint64(va)>>30)
	}
	if leaf == 3 {
		fill(m.pde, uint64(va)>>21)
	}
	fill(m.pml4, uint64(va)>>39)
	m.l2.insert(tag)
	m.l2.writes[m.l2.active]++
	m.fillL1(va, size)
	if m.l2Rng == nil {
		return
	}
	// A B-tree of fanout 8: one reference per level, at least one.
	h := 1
	for reach := 8; reach < len(m.ranges); reach *= 8 {
		h++
	}
	m.rngWalkRefs += uint64(h)
	for _, r := range m.ranges {
		if va >= r.start && va < r.end {
			m.l2Rng.insert(r)
			if m.l1Rng != nil {
				m.l1Rng.insert(r)
			}
			break
		}
	}
}

// fillL1 writes the translation into the L1 page TLB of its size and
// enables that TLB (§3.1).
func (m *refMMU) fillL1(va addr.VA, size addr.PageSize) {
	for _, t := range m.l1 {
		if m.mixed() || t.size == size {
			t.enabled = true
			t.insert(refTag{size, addr.VPN(va, size)})
			t.writes[t.active]++
			return
		}
	}
	panic("reference: no L1 TLB for the page size")
}

// limit is the highest MPKI ε accepts over a reference MPKI (§4.2.2).
func (m *refMMU) limit(ref float64) float64 {
	if m.cfg.absEps {
		return ref + 0.1
	}
	return ref * (1 + 0.125)
}

// endInterval is Figure 7: re-enable every way when the MPKI degraded
// past ε or a 1/32 random draw fires; otherwise run each L1 TLB at the
// fewest ways whose predicted MPKI — the actual misses plus the hits
// its disabled LRU positions would have lost — stays within ε.
func (m *refMMU) endInterval() {
	mpki := float64(m.intervalMiss) * 1000 / float64(m.interval)
	degraded := m.hasPrev && mpki > m.limit(m.prevMPKI)
	random := m.rng.Float64() < 1.0/32
	if degraded || random {
		for _, t := range m.l1 {
			if t.active < t.ways {
				t.resize(t.ways)
			}
		}
		m.res.LiteReactivations++
	} else {
		for _, t := range m.l1 {
			for w := 1; w <= t.ways; w *= 2 {
				lost := uint64(0)
				for _, h := range t.hitsAt[w:] {
					lost += h
				}
				if float64(m.intervalMiss+lost)*1000/float64(m.interval) <= m.limit(mpki) {
					if w != t.active {
						t.resize(w)
						m.res.LiteResizes++
					}
					break
				}
			}
		}
	}
	ways := make([]int, len(m.l1))
	for i, t := range m.l1 {
		ways[i] = t.active
		clear(t.hitsAt)
	}
	m.waysHistory = append(m.waysHistory, ways)
	m.intervalMiss = 0
	m.prevMPKI, m.hasPrev = mpki, true
}

// result prices the counted events with Table 2 and fills the shares.
func (m *refMMU) result() refResult {
	r := m.res
	r.WalkRefs = m.walkRefs
	price := func(c *refLRU) {
		for w := range c.reads {
			if c.reads[w] == 0 && c.writes[w] == 0 {
				continue
			}
			priced := 0
			if c.wayPriced {
				priced = w
			}
			cost := m.db.Cost(c.name, priced)
			r.Energy[c.acc] += float64(c.reads[w])*cost.ReadPJ + float64(c.writes[w])*cost.WritePJ
		}
	}
	for _, t := range m.l1 {
		price(t.refLRU)
	}
	for _, c := range []*refLRU{m.l2, m.pde, m.pdpte, m.pml4} {
		price(c)
	}
	priceRange := func(t *refRangeTLB, name string, acc energy.Account) {
		if t != nil {
			cost := m.db.Cost(name, 0)
			r.Energy[acc] += float64(t.reads)*cost.ReadPJ + float64(t.writes)*cost.WritePJ
		}
	}
	priceRange(m.l1Rng, energy.L1Range, energy.AccL1Range)
	priceRange(m.l2Rng, energy.L2Range, energy.AccL2Range)
	// The paper's optimistic default: every walk reference hits the L1
	// data cache.
	walkPJ := m.db.Cost(energy.L1Cache, 0).ReadPJ
	r.Energy[energy.AccPageWalk] = float64(m.walkRefs) * walkPJ
	if m.l2Rng != nil {
		r.Energy[energy.AccRangeWalk] = float64(m.rngWalkRefs) * walkPJ
	}
	if m.cfg.lite {
		for _, t := range m.l1 {
			var total uint64
			for _, n := range t.lookupsAt {
				total += n
			}
			share := make([]float64, len(t.lookupsAt))
			for k, n := range t.lookupsAt {
				if total > 0 {
					share[k] = float64(n) / float64(total)
				}
			}
			r.LiteLookupShare = append(r.LiteLookupShare, share)
		}
	}
	if m.pred != nil && m.pred.predictions > 0 {
		r.MispredictRate = float64(m.pred.mispredict) / float64(m.pred.predictions)
	}
	return r
}
