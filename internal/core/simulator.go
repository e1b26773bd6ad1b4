package core

import (
	"context"
	"fmt"

	"xlate/internal/addr"
	"xlate/internal/audit"
	"xlate/internal/audit/inject"
	"xlate/internal/energy"
	"xlate/internal/lite"
	"xlate/internal/mmucache"
	"xlate/internal/pagetable"
	"xlate/internal/rmm"
	"xlate/internal/stats"
	"xlate/internal/tlb"
	"xlate/internal/trace"
	"xlate/internal/vm"
)

// Simulator is one core's MMU: the TLB hierarchy of the selected
// configuration attached to a process address space. Drive it with
// Access (one memory operation at a time) or RunContext (a whole
// reference stream).
type Simulator struct {
	p  Params
	as *vm.AddressSpace

	// l1 is the configuration's L1 page TLBs, probed in parallel in
	// this order: l1[0] is the L1-4KB TLB, or the single mixed L1 under
	// TLB_PP and the predictor extensions. l1BySize maps a page size to
	// the entry its translations fill (-1 when there is none).
	l1       []l1Page
	l1BySize [3]int

	l1rng *tlb.RangeTLB // L1-range TLB (nil when absent)
	l2    *tlb.SetAssoc // unified L2 page TLB
	l2rng *tlb.RangeTLB // L2-range TLB (nil when absent)
	mmu   *mmucache.Cache
	walk  *pagetable.Walker
	rt    *rmm.RangeTable // nil when the config has no range support
	ctl   *lite.Controller
	pred  *sizePredictor // nil unless the config uses a real predictor

	cost energyCosts // every charge of the configuration, resolved at construction

	// aud is the runtime integrity layer (nil unless Params.Audit is
	// enabled). It observes probes, fills, hits and charges, and never
	// mutates simulator state, so an audited run is byte-identical to an
	// unaudited one.
	aud *audit.Auditor

	// Fault-injection state (inject package; zero unless Params.Fault is
	// set). dropInval names a structure the next InvalidateRegion must
	// skip.
	fault      inject.Fault
	faultArmed bool
	dropInval  string

	// shadow is set when something reads runStats.shadowPJ: the auditor's
	// conservation check or the interval energy series.
	shadow bool

	// err records a demand fault the address space could not serve;
	// RunContext stops the run and returns it, Err reports it.
	err error

	// tele is the telemetry attachment (nil unless Params.Metrics or
	// Params.Trace is set). Like aud, it observes and never mutates
	// simulator state: instrumented runs are byte-identical.
	tele *teleState

	st runStats
}

// runStats is the accumulating state of one run.
type runStats struct {
	instructions uint64
	memRefs      uint64
	l1Misses     uint64
	l2Misses     uint64
	walkRefs     uint64
	cycles       uint64
	pageFaults   uint64
	shootdowns   uint64

	// L1 hit attribution (Table 5 right): page hits by page size, and
	// range hits.
	hits      [3]uint64
	hitsRange uint64

	energy energy.Breakdown
	// shadowPJ is a single running sum over every charge, accumulated
	// separately from the per-account breakdown; the audit layer's
	// conservation check compares the two.
	shadowPJ float64

	// interval series (Figure 4, plus the energy/Lite drill-downs).
	// intRefMark / intPJMark are the memRefs and shadowPJ values at the
	// previous interval boundary, so each point charges only its own
	// interval's references and energy.
	intInstrs    uint64
	intL1Misses  uint64
	intRefMark   uint64
	intPJMark    float64
	series       stats.Series
	seriesEnergy stats.Series
	seriesWays   stats.Series
}

// l1Page is one entry of the L1 probe table: a resolved l1Spec and the
// TLB built from it.
type l1Page struct {
	l1Spec
	tlb *tlb.SetAssoc
	// enabled models the static disable mask of §3.1: a huge-page TLB is
	// probed (and charged) only after a page table entry of its size has
	// been fetched by a page walk.
	enabled bool
	liteIdx int // monitored index in the Lite controller; -1 when unmonitored
}

// tag returns the key under which t caches the translation of va, a
// page of size sz, and the page size a hit on that key serves.
func (t *l1Page) tag(va addr.VA, sz addr.PageSize) (uint64, addr.PageSize) {
	if t.mixed {
		return mixKey(va, sz), sz
	}
	return addr.VPN(va, t.size), t.size
}

// NewSimulator builds the configured TLB hierarchy over the given
// address space. The address space must have been created with a policy
// compatible with the configuration (see PolicyFor).
func NewSimulator(p Params, as *vm.AddressSpace) (*Simulator, error) {
	cost, err := p.resolve()
	if err != nil {
		return nil, err
	}
	cfg, _ := p.Kind.row()
	s := &Simulator{
		p:        p,
		as:       as,
		l2:       tlb.NewSetAssoc(energy.L2Page, p.L2Entries, p.L2Ways),
		mmu:      mmucache.New(p.MMU),
		walk:     pagetable.NewWalker(as.PageTable()),
		cost:     cost,
		l1BySize: [3]int{-1, -1, -1},
	}
	var monitored []*tlb.SetAssoc
	for i, sp := range cost.l1 {
		t := l1Page{l1Spec: sp, tlb: tlb.NewSetAssoc(sp.name, sp.entries, sp.ways),
			enabled: sp.size == addr.Page4K, liteIdx: -1}
		if t.mixed {
			s.l1BySize = [3]int{0, 0, 0}
		} else {
			s.l1BySize[sp.size] = i
		}
		if cfg.lite {
			// Lite monitors every L1 page TLB (§4.2.2).
			t.liteIdx = len(monitored)
			monitored = append(monitored, t.tlb)
		}
		s.l1 = append(s.l1, t)
	}
	if cfg.l2Range {
		s.l2rng = tlb.NewRangeTLB(energy.L2Range, p.L2RangeEntries)
		s.rt = as.RangeTable()
	}
	if cfg.l1Range {
		s.l1rng = tlb.NewRangeTLB(energy.L1Range, p.L1RangeEntries)
	}
	if cfg.lite {
		s.ctl = lite.NewController(p.Lite, monitored...)
	}
	if cfg.predictor {
		s.pred = newSizePredictor(p.PredictorEntries)
	}
	if p.Fault.Kind != inject.None {
		s.fault = p.Fault
		s.faultArmed = true
	}
	if p.Audit.Enabled {
		mmu := s.mmu.Structures()
		l1 := make([]audit.PageTLB, len(s.l1))
		for i, t := range s.l1 {
			l1[i] = audit.PageTLB{TLB: t.tlb, Size: t.size, Mixed: t.mixed}
		}
		s.aud = audit.New(p.Audit, audit.Structures{
			PT:    as.PageTable(),
			RT:    s.rt,
			L1:    l1,
			L2:    s.l2,
			L1Rng: s.l1rng,
			L2Rng: s.l2rng,
			MMU:   mmu[:],
			Lite:  s.ctl,
			DB:    p.EnergyDB,
			// Re-derived from the database rather than copied from
			// s.cost, so a corrupted cached value is detectable.
			WalkRefPJ: p.EnergyDB.WalkRefCost(p.WalkL1HitRatio),
		})
	}
	s.shadow = s.aud != nil || p.SeriesIntervalInstrs > 0
	s.st.series.Name = "L1 MPKI per interval"
	s.st.seriesEnergy.Name = "energy/access (pJ) per interval"
	s.st.seriesWays.Name = "L1-4KB active ways per interval"
	if p.Metrics != nil || p.Trace != nil {
		s.attachTelemetry(p.Metrics, p.Trace)
	}
	return s, nil
}

// Lite exposes the Lite controller (nil for non-Lite configurations).
func (s *Simulator) Lite() *lite.Controller { return s.ctl }

// mixKey builds a page-size-qualified tag for structures holding
// multiple page sizes (the unified L2, and TLB_PP's mixed L1). The size
// discriminator lives in the high bits so the VPN's low bits — which
// select the set — keep their natural distribution.
func mixKey(va addr.VA, sz addr.PageSize) uint64 {
	return uint64(sz)<<60 | addr.VPN(va, sz)
}

// charge books pj picojoules against acc in the per-account breakdown
// and, when it is read, in the shadow total the conservation audit and
// the interval energy series use. It is the simulator's single energy
// charging primitive; the chargesite analyzer rejects Breakdown writes
// anywhere else.
//
//eeat:chargesite
func (s *Simulator) charge(acc energy.Account, pj float64) {
	s.st.energy.Add(acc, pj)
	if s.shadow {
		s.st.shadowPJ += pj
	}
}

// The audit* helpers forward observations to the integrity layer when
// one is attached. They are nil-guarded one-liners so the disabled-audit
// hot path pays a single branch per event.

func (s *Simulator) auditRead(acc energy.Account, name string, ways int) {
	if s.aud != nil {
		s.aud.RecordRead(acc, name, ways)
	}
}

func (s *Simulator) auditWrite(acc energy.Account, name string, ways int) {
	if s.aud != nil {
		s.aud.RecordWrite(acc, name, ways)
	}
}

func (s *Simulator) auditWalkRefs(acc energy.Account, refs int) {
	if s.aud != nil {
		s.aud.RecordWalkRefs(acc, refs)
	}
}

func (s *Simulator) auditPageHit(name string, e tlb.Entry, sz addr.PageSize) {
	if s.aud != nil {
		s.aud.RecordPageHit(name, e, sz)
	}
}

// applyFault performs the armed fault's corruption. Faults that need a
// victim entry stay armed until one is resident.
//
//eeat:coldpath fault injection is a test-only facility, armed at most once per run
func (s *Simulator) applyFault() {
	switch s.fault.Kind {
	case inject.FlipPFN:
		mask := s.fault.Mask
		if mask == 0 {
			mask = 1
		}
		if s.l1[0].tlb.MutateEntry(func(e *tlb.Entry) bool { e.Frame ^= mask; return true }) {
			s.faultArmed = false
		}
	case inject.StaleRange:
		mut := func(e *tlb.RangeEntry) bool { e.PABase += addr.PA(addr.Bytes4K); return true }
		if s.l2rng != nil && s.l2rng.MutateEntry(mut) {
			s.faultArmed = false
		} else if s.l1rng != nil && s.l1rng.MutateEntry(mut) {
			s.faultArmed = false
		}
	case inject.DropInvalidation:
		s.dropInval = s.fault.Target
		if s.dropInval == "" {
			s.dropInval = energy.L12MB
		}
		s.faultArmed = false
	case inject.SkewCharge:
		f := s.fault.Factor
		if f == 0 {
			f = 1.5
		}
		s.cost.scale(f)
		s.faultArmed = false
	}
}

// probeL1 looks key up in L1 page TLB t and charges the read at its
// current active ways.
func (s *Simulator) probeL1(t *l1Page, key uint64) (tlb.Entry, int, bool) {
	e, pos, hit := t.tlb.Lookup(key)
	ways := t.tlb.ActiveWays()
	s.charge(t.acc, t.cost[ways].ReadPJ)
	s.auditRead(t.acc, t.name, ways)
	return e, pos, hit
}

// Access simulates one memory operation: the virtual address and the
// instructions executed since the previous reference. Every probe, fill
// and walk charges the energy model; the performance model adds 7 cycles
// per L1 miss and 50 per L2 miss (Table 3).
//
// L1 probes come first; the page table is read only when every L1
// structure misses (the mixed L1 of TLB_PP and the predictor configs,
// whose tag embeds the page size, translates up front).
//
// Under Params.DemandPaging, a reference the address space cannot back
// (physical memory exhausted) is counted, and on split L1s its L1
// probes are charged, but it goes no further; RunContext returns the
// failure, and callers driving Access directly read it from Err.
//
// Access is the root of the simulator's hot path: everything it
// reaches must stay allocation-free (the AllocsPerRun pins check this
// dynamically, the hotpath analyzer statically).
//
//eeat:hotpath
func (s *Simulator) Access(va addr.VA, instrs uint64) {
	s.st.instructions += instrs
	s.st.memRefs++

	if s.faultArmed && s.st.memRefs > s.fault.AfterRefs {
		s.applyFault()
	}
	if s.aud != nil {
		s.aud.BeginAccess(va, &s.st.energy)
	}

	var m pagetable.Mapping
	mixed := s.l1[0].mixed
	if mixed && !s.translate(va, &m) {
		return
	}

	if s.ctl != nil {
		s.ctl.RecordLookup()
	}

	// --- L1 probes: every enabled L1 structure in parallel ---
	if s.pred != nil {
		// TLB_Pred / Combined: a real predictor selects the mixed L1's
		// index bits. A misprediction can never hit (the tag embeds the
		// true size), so it costs a wasted read and an extra cycle before
		// the re-indexed probe below.
		if predicted := s.pred.predict(va); predicted != m.Size {
			s.probeL1(&s.l1[0], mixKey(va, predicted))
			s.pred.noteMispredict()
			s.st.cycles += uint64(s.p.MispredictPenaltyCycles)
		}
		s.pred.update(va, m.Size)
	}
	pageHit := false
	var pageHitSize addr.PageSize
	for i := range s.l1 {
		t := &s.l1[i]
		if !t.enabled {
			continue
		}
		// TLB_PP's perfect predictor indexes the mixed L1 by the actual
		// page size at no energy cost.
		key, sz := t.tag(va, m.Size)
		e, pos, hit := s.probeL1(t, key)
		if hit {
			pageHit, pageHitSize = true, sz
			s.auditPageHit(t.name, e, sz)
			if t.liteIdx >= 0 {
				s.ctl.RecordHit(t.liteIdx, pos)
			}
		}
	}
	rangeHit := false
	var hitRange rmm.Range
	if s.l1rng != nil {
		re, rh := s.l1rng.Lookup(va)
		s.charge(energy.AccL1Range, s.cost.l1Rng.ReadPJ)
		s.auditRead(energy.AccL1Range, energy.L1Range, 0)
		rangeHit = rh
		if rh {
			hitRange = re
			if s.aud != nil {
				s.aud.RecordRangeHit(re)
			}
		}
	}

	switch {
	case rangeHit:
		s.st.hitsRange++
		s.traceRangeHit(uint64(hitRange.Start), uint64(hitRange.End))
	case pageHit:
		s.st.hits[pageHitSize]++
	default:
		if !mixed && !s.translate(va, &m) {
			return
		}
		s.missPath(va, m)
	}

	if s.ctl != nil {
		s.ctl.AddInstructions(instrs)
	}
	if s.p.SeriesIntervalInstrs > 0 {
		s.st.intInstrs += instrs
		for s.st.intInstrs >= s.p.SeriesIntervalInstrs {
			s.st.intInstrs -= s.p.SeriesIntervalInstrs
			s.st.series.Append(float64(s.st.intL1Misses) * 1000 / float64(s.p.SeriesIntervalInstrs))
			s.st.intL1Misses = 0
			intRefs := s.st.memRefs - s.st.intRefMark
			perRef := 0.0
			if intRefs > 0 {
				perRef = (s.st.shadowPJ - s.st.intPJMark) / float64(intRefs)
			}
			s.st.seriesEnergy.Append(perRef)
			s.st.seriesWays.Append(float64(s.l1[0].tlb.ActiveWays()))
			s.st.intRefMark = s.st.memRefs
			s.st.intPJMark = s.st.shadowPJ
		}
	}
	if s.aud != nil {
		s.aud.EndAccess(&s.st.energy, s.st.shadowPJ)
	}
}

// translate stores the mapping covering va in *m, demand-faulting it in
// on its first touch. False means the fault failed; the error is in s.err.
func (s *Simulator) translate(va addr.VA, m *pagetable.Mapping) bool {
	var ok bool
	if *m, ok = s.as.PageTable().Lookup(va); !ok {
		*m, ok = s.demandFault(va)
	}
	return ok
}

// demandFault maps the chunk holding va on its first touch
// (Params.DemandPaging) and returns the now-resident mapping. When the
// address space cannot back the chunk, it records the error for
// RunContext and reports false.
//
//eeat:coldpath page-fault handling; faults are rare at architecture scale
func (s *Simulator) demandFault(va addr.VA) (pagetable.Mapping, bool) {
	if !s.p.DemandPaging {
		panic(fmt.Sprintf("core: access to unmapped address %#x — pre-map memory or enable DemandPaging", uint64(va)))
	}
	if _, err := s.as.EnsureMapped(va); err != nil {
		s.err = fmt.Errorf("core: demand paging failed: %w", err)
		return pagetable.Mapping{}, false
	}
	s.st.pageFaults++
	s.tracePageFault(uint64(va))
	// Under eager paging the fault may have merged the new chunk into a
	// neighbouring range, rewriting that range's bounds in the range
	// table. Cached copies of the old, narrower range are now stale
	// mappings and must leave the hardware, exactly like any other
	// OS-changed translation (InvalidateRegion). Absent a merge nothing
	// overlaps a freshly faulted chunk.
	if r, ok := s.as.RangeTable().Lookup(va); ok {
		if s.l1rng != nil {
			s.l1rng.InvalidateOverlapping(r.Start, r.End)
		}
		if s.l2rng != nil {
			s.l2rng.InvalidateOverlapping(r.Start, r.End)
		}
	}
	m, ok := s.as.PageTable().Lookup(va)
	if !ok {
		panic(fmt.Sprintf("core: demand mapping did not cover %#x", uint64(va)))
	}
	return m, true
}

// missPath handles an access that missed in all L1 structures.
func (s *Simulator) missPath(va addr.VA, m pagetable.Mapping) {
	s.st.l1Misses++
	s.st.intL1Misses++
	s.traceMiss(uint64(va))
	s.st.cycles += uint64(s.p.L2LatencyCycles)
	if s.ctl != nil {
		s.ctl.RecordMiss()
	}

	// --- L2 probes: page and range TLBs in parallel ---
	l2e, _, l2PageHit := s.l2.Lookup(mixKey(va, m.Size))
	s.charge(energy.AccL2Page, s.cost.l2.ReadPJ)
	s.auditRead(energy.AccL2Page, energy.L2Page, 0)
	if l2PageHit {
		s.auditPageHit(energy.L2Page, l2e, m.Size)
	}
	var l2RangeEnt rmm.Range
	l2RangeHit := false
	if s.l2rng != nil {
		l2RangeEnt, l2RangeHit = s.l2rng.Lookup(va)
		s.charge(energy.AccL2Range, s.cost.l2Rng.ReadPJ)
		s.auditRead(energy.AccL2Range, energy.L2Range, 0)
		if l2RangeHit && s.aud != nil {
			s.aud.RecordRangeHit(l2RangeEnt)
		}
	}

	switch {
	case l2PageHit:
		s.fillL1Page(va, m)
		if l2RangeHit {
			s.fillL1Range(l2RangeEnt)
		}
	case l2RangeHit:
		// The hit range translation is copied to the L1-range TLB, and
		// the corresponding page table entry to the L1-page TLBs as in
		// RMM (§4.3).
		s.fillL1Range(l2RangeEnt)
		s.fillL1Page(va, m)
	default:
		s.walkPath(va, m)
	}
}

// walkPath handles an L2 TLB miss: the hardware page walk, MMU-cache
// interaction, refills, and RMM's background range-table walk.
func (s *Simulator) walkPath(va addr.VA, m pagetable.Mapping) {
	s.st.l2Misses++
	s.st.cycles += uint64(s.p.WalkLatencyCycles)

	// All three paging-structure caches are probed in parallel.
	start := s.mmu.Probe(va)
	for i, st := range s.mmu.Structures() {
		s.charge(energy.AccMMUCache, s.cost.mmu[i].ReadPJ)
		s.auditRead(energy.AccMMUCache, st.Name(), 0)
	}

	wm, refs, ok := s.walk.Walk(va, start)
	if !ok {
		panic(fmt.Sprintf("core: page walk fault at %#x", uint64(va)))
	}
	s.st.walkRefs += uint64(refs)
	s.traceWalk(uint64(va), refs, wm.Size.String())
	s.charge(energy.AccPageWalk, float64(refs)*s.cost.walkRefPJ)
	s.auditWalkRefs(energy.AccPageWalk, refs)
	if s.aud != nil {
		s.aud.RecordWalkResult(wm)
	}

	// Fill the paging-structure caches with the non-leaf entries the
	// walk read, charging a write per structure actually filled.
	var fillsBefore [3]uint64
	for i, st := range s.mmu.Structures() {
		fillsBefore[i] = st.Stats().Fills
	}
	s.mmu.Fill(va, wm.Size.LeafLevel())
	for i, st := range s.mmu.Structures() {
		if st.Stats().Fills > fillsBefore[i] {
			s.charge(energy.AccMMUCache, s.cost.mmu[i].WritePJ)
			s.auditWrite(energy.AccMMUCache, st.Name(), 0)
		}
	}

	// Refill L2 and L1 page TLBs.
	s.l2.Insert(tlb.Entry{Key: mixKey(va, wm.Size), Frame: uint64(wm.Frame)})
	s.charge(energy.AccL2Page, s.cost.l2.WritePJ)
	s.auditWrite(energy.AccL2Page, energy.L2Page, 0)
	s.fillL1Page(va, wm)

	// RMM: background range-table walk — no cycles, only energy (§5).
	if s.rt != nil {
		r, rrefs, found := s.rt.Walk(va)
		s.charge(energy.AccRangeWalk, float64(rrefs)*s.cost.walkRefPJ)
		s.auditWalkRefs(energy.AccRangeWalk, rrefs)
		if found {
			if err := s.l2rng.Insert(r); err != nil {
				panic(fmt.Sprintf("core: range table produced a bad range: %v", err))
			}
			s.charge(energy.AccL2Range, s.cost.l2Rng.WritePJ)
			s.auditWrite(energy.AccL2Range, energy.L2Range, 0)
			s.fillL1Range(r)
		}
	}
}

// fillL1Page inserts the page translation into the L1 page TLB matching
// its size, enables that TLB (§3.1) and charges the write.
func (s *Simulator) fillL1Page(va addr.VA, m pagetable.Mapping) {
	i := s.l1BySize[m.Size]
	if i < 0 {
		panic(fmt.Sprintf("core: %v mapping at %#x but configuration %v has no L1 TLB for it — address-space policy mismatch",
			m.Size, uint64(va), s.p.Kind))
	}
	t := &s.l1[i]
	t.enabled = true
	key, _ := t.tag(va, m.Size)
	t.tlb.Insert(tlb.Entry{Key: key, Frame: uint64(m.Frame)})
	ways := t.tlb.ActiveWays()
	s.charge(t.acc, t.cost[ways].WritePJ)
	s.auditWrite(t.acc, t.name, ways)
}

// fillL1Range inserts a range translation into the L1-range TLB when the
// configuration has one.
func (s *Simulator) fillL1Range(r rmm.Range) {
	if s.l1rng == nil {
		return
	}
	if err := s.l1rng.Insert(r); err != nil {
		panic(fmt.Sprintf("core: range table produced a bad range: %v", err))
	}
	s.charge(energy.AccL1Range, s.cost.l1Rng.WritePJ)
	s.auditWrite(energy.AccL1Range, energy.L1Range, 0)
}

// Err returns the demand-fault failure recorded by Access, or nil.
func (s *Simulator) Err() error { return s.err }

// cancelCheckRefs is how many references RunContext simulates between
// cancellation checks: frequent enough that a cell responds to a cancel
// or deadline within microseconds, rare enough to stay invisible in the
// hot loop.
const cancelCheckRefs = 1 << 14

// RunContext drives the simulator with references from src — a
// workload generator or a recorded-trace replay — until at least
// instrBudget instructions have executed, then returns the results.
// Every few thousand references it polls ctx and, when the context is
// cancelled or its deadline passes, stops and returns the partial Result
// together with the context's error. The experiment harness uses this
// for per-cell deadlines and suite-wide interrupt handling. A demand
// fault the address space cannot back (Params.DemandPaging) likewise
// stops the run at the faulting reference, returning an error that wraps
// the vm error.
//
// When the run is audited (Params.Audit), RunContext polls the auditor
// on the same cadence, runs one final structural audit after the budget
// is reached, and returns the first audit.ViolationError with the
// partial Result — surfacing silent corruption the same way a panic or
// deadline surfaces, as a typed cell error in the harness.
//
// A trace.BlockSource is consumed a block at a time, straight from its
// buffer; any other source goes through trace.Blocks' one-reference
// adapter. Either way the run consumes exactly the references it
// simulates: a budget met mid-block leaves the rest of the block in
// the source, so a later RunContext on the same source resumes at the
// next reference. A source that ends (trace.BlockSource) stops the run
// with the partial Result and the source's reason.
func (s *Simulator) RunContext(ctx context.Context, src trace.RefSource, instrBudget uint64) (Result, error) {
	if t := s.tele; t != nil && t.m != nil {
		t.m.simsActive.Add(1)
		defer t.m.simsActive.Add(-1)
	}
	blocks := trace.Blocks(src)
	done := ctx.Done()
	// untilPoll counts down the references left before the next poll.
	for untilPoll := 0; s.st.instructions < instrBudget; {
		if untilPoll == 0 {
			// Telemetry rides the cancellation cadence: a live /metrics
			// scrape sees counters at most 16 Ki references stale.
			s.flushTelemetry()
			if done != nil {
				select {
				case <-done:
					return s.Result(), ctx.Err()
				default:
				}
			}
			if s.aud != nil {
				if err := s.aud.Err(); err != nil {
					return s.Result(), err
				}
			}
			untilPoll = cancelCheckRefs
		}
		refs := blocks.Peek()
		if len(refs) == 0 {
			// Only a source with an Err method ends (trace.BlockSource).
			return s.Result(), blocks.(interface{ Err() error }).Err()
		}
		if len(refs) > untilPoll {
			refs = refs[:untilPoll]
		}
		n := 0
		for n < len(refs) && s.st.instructions < instrBudget {
			s.Access(refs[n].VA, refs[n].Instrs)
			n++
			if s.err != nil {
				break
			}
		}
		blocks.Skip(n)
		untilPoll -= n
		if s.err != nil {
			return s.Result(), s.err
		}
	}
	if s.aud != nil {
		s.aud.AuditNow(&s.st.energy, s.st.shadowPJ)
		if err := s.aud.Err(); err != nil {
			return s.Result(), err
		}
	}
	return s.Result(), nil
}

// AuditErr runs an immediate structural audit when the integrity layer
// is attached and returns the first violation recorded so far, or nil.
// Tests and callers that drive Access/InvalidateRegion directly use it
// to check integrity without going through RunContext.
func (s *Simulator) AuditErr() error {
	if s.aud == nil {
		return nil
	}
	s.aud.AuditNow(&s.st.energy, s.st.shadowPJ)
	return s.aud.Err()
}

// InvalidateRegion models an OS-initiated TLB shootdown for the virtual
// range [start, end): after the OS changes mappings (munmap, huge-page
// demotion under memory pressure), stale translations must leave the
// hardware. Small ranges are invalidated entry by entry (INVLPG-style);
// ranges wider than shootdownFlushPages pages use a full flush of the
// translation structures, as operating systems do to bound shootdown
// latency. Range TLBs drop overlapping ranges either way, and the
// paging-structure caches are flushed conservatively.
func (s *Simulator) InvalidateRegion(start, end addr.VA) {
	if end <= start {
		return
	}
	s.st.shootdowns++
	// An armed drop-inval fault makes this shootdown skip one structure
	// (identified by its energy-database name), leaving stale entries
	// the coherence audit must then catch.
	drop := s.dropInval
	s.dropInval = ""
	const shootdownFlushPages = 512
	flush := uint64(end-start)>>addr.Shift4K > shootdownFlushPages
	s.traceShootdown(uint64(start), uint64(end), flush)
	overlaps := func(va addr.VA, sz addr.PageSize) bool {
		return va+addr.VA(sz.Bytes()) > start && va < end
	}
	inMixed := func(e tlb.Entry) bool {
		sz := addr.PageSize(e.Key >> 60)
		return overlaps(addr.VA((e.Key&(1<<60-1))<<sz.Shift()), sz)
	}
	invalidate := func(t *tlb.SetAssoc, mixed bool, sz addr.PageSize) {
		switch {
		case t.Name() == drop:
		case flush:
			t.Flush()
		case mixed:
			t.InvalidateIf(inMixed)
		default:
			t.InvalidateIf(func(e tlb.Entry) bool { return overlaps(addr.VA(e.Key<<sz.Shift()), sz) })
		}
	}
	for _, t := range s.l1 {
		invalidate(t.tlb, t.mixed, t.size)
	}
	invalidate(s.l2, true, 0)
	if s.l1rng != nil && drop != energy.L1Range {
		s.l1rng.InvalidateOverlapping(start, end)
	}
	if s.l2rng != nil && drop != energy.L2Range {
		s.l2rng.InvalidateOverlapping(start, end)
	}
	s.mmu.Flush()
	// A shootdown follows a mapping change — exactly when stale entries
	// would appear — so an attached auditor re-checks coherence now
	// rather than waiting for the periodic cadence.
	if s.aud != nil {
		s.aud.AuditNow(&s.st.energy, s.st.shadowPJ)
	}
}
