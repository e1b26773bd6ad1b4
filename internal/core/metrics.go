package core

import (
	"xlate/internal/energy"
	"xlate/internal/lite"
	"xlate/internal/telemetry"
	"xlate/internal/tlb"
)

// Metrics is the simulator-side view of a shared telemetry registry:
// every handle the hot path needs, resolved once. All simulators of a
// run (worker-pool cells, multicore cores) share one Metrics value, so
// the registry aggregates run-wide totals.
//
// The simulator never touches these atomics per access. It accumulates
// into its private runStats exactly as before and flushes *deltas* on
// the RunContext cancellation-check cadence (every 16 Ki references)
// and at Result(). Instrumented runs therefore compute byte-identical
// results to uninstrumented ones — asserted by TestTelemetryByteIdentity.
type Metrics struct {
	reg *telemetry.Registry

	accesses     *telemetry.Counter
	instructions *telemetry.Counter
	hits         [3]*telemetry.Counter // L1 page hits by page size
	hitsRange    *telemetry.Counter
	l1Misses     *telemetry.Counter
	l2Misses     *telemetry.Counter
	walkRefs     *telemetry.Counter
	rangeWalks   *telemetry.Counter
	rangeRefs    *telemetry.Counter
	pageFaults   *telemetry.Counter
	shootdowns   *telemetry.Counter
	missCycles   *telemetry.Counter
	liteResizes  *telemetry.Counter
	liteReacts   *telemetry.Counter
	simsActive   *telemetry.Gauge
	energy       [energy.NumAccounts]*telemetry.FloatCounter
}

// NewMetrics registers the simulator metric families into reg and
// returns the shared handle set. Safe to call more than once on the
// same registry: handles are shared, not duplicated.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	m := &Metrics{
		reg: reg,
		accesses: reg.Counter("xlate_accesses_total",
			"memory references simulated"),
		instructions: reg.Counter("xlate_instructions_total",
			"instructions simulated"),
		l1Misses: reg.Counter("xlate_tlb_l1_misses_total",
			"references that missed every L1 translation structure"),
		l2Misses: reg.Counter("xlate_tlb_l2_misses_total",
			"references that missed the L2 TLBs and walked the page table"),
		walkRefs: reg.Counter("xlate_walk_refs_total",
			"page-walk memory references"),
		rangeWalks: reg.Counter("xlate_range_walks_total",
			"background range-table walks"),
		rangeRefs: reg.Counter("xlate_range_walk_refs_total",
			"memory references of background range-table walks"),
		pageFaults: reg.Counter("xlate_page_faults_total",
			"demand-paging faults"),
		shootdowns: reg.Counter("xlate_shootdowns_total",
			"OS-initiated TLB shootdowns (InvalidateRegion calls)"),
		missCycles: reg.Counter("xlate_tlb_miss_cycles_total",
			"cycles spent in L1 and L2 TLB misses"),
		liteResizes: reg.Counter("xlate_lite_resizes_total",
			"Lite way-disabling actions"),
		liteReacts: reg.Counter("xlate_lite_reactivations_total",
			"Lite full-reactivation events"),
		simsActive: reg.Gauge("xlate_sims_active",
			"simulators currently inside RunContext"),
	}
	const hitHelp = "L1 hits by providing structure kind"
	for sz, kind := range [3]string{"4k", "2m", "1g"} {
		m.hits[sz] = reg.Counter("xlate_tlb_l1_hits_total", hitHelp, telemetry.L("kind", kind))
	}
	m.hitsRange = reg.Counter("xlate_tlb_l1_hits_total", hitHelp, telemetry.L("kind", "range"))
	for a := energy.Account(0); a < energy.NumAccounts; a++ {
		m.energy[a] = reg.FloatCounter("xlate_energy_picojoules_total",
			"dynamic translation energy by breakdown account",
			telemetry.L("account", a.String()))
	}
	return m
}

// Registry returns the registry the metrics live in.
func (m *Metrics) Registry() *telemetry.Registry { return m.reg }

// structCounters is the labeled per-structure counter set ("L1-4KB TLB",
// "L2-range TLB", the MMU caches, ...).
type structCounters struct {
	lookups, hits, fills, evicts, invals *telemetry.Counter
}

func (m *Metrics) structCounters(name string) structCounters {
	l := telemetry.L("structure", name)
	return structCounters{
		lookups: m.reg.Counter("xlate_structure_lookups_total", "probes per lookup structure", l),
		hits:    m.reg.Counter("xlate_structure_hits_total", "hits per lookup structure", l),
		fills:   m.reg.Counter("xlate_structure_fills_total", "fills per lookup structure", l),
		evicts:  m.reg.Counter("xlate_structure_evictions_total", "evictions per lookup structure", l),
		invals:  m.reg.Counter("xlate_structure_invalidations_total", "invalidations per lookup structure", l),
	}
}

// structFlush binds one structure's private Stats to its shared
// counters, remembering the last-flushed values for delta computation.
type structFlush struct {
	stats func() tlb.Stats
	dst   structCounters
	last  tlb.Stats
}

// teleState is one simulator's telemetry attachment: the shared metric
// handles, the tracer track, and the last-flushed snapshot of every
// counter the flush publishes. All fields are owned by the simulator's
// goroutine; only the shared atomics are crossed.
type teleState struct {
	m       *Metrics
	tr      *telemetry.Tracer
	track   uint64
	last    teleSnapshot
	structs []structFlush
}

// teleSnapshot is what the flush publishes: the run statistics plus the
// counters the range table and the Lite controller keep.
type teleSnapshot struct {
	st                      runStats
	rangeWalks, rangeRefs   uint64
	liteResizes, liteReacts uint64
}

// attachTelemetry wires the simulator to the shared metrics and/or
// tracer. Called from NewSimulator after every structure exists.
func (s *Simulator) attachTelemetry(m *Metrics, tr *telemetry.Tracer) {
	t := &teleState{m: m, tr: tr}
	if tr != nil {
		t.track = tr.NextTrack()
		tr.Emit(t.track, 0, "sim", "configured", telemetry.KV{K: "config", V: s.p.Kind.String()})
	}
	if m != nil {
		bind := func(name string, stats func() tlb.Stats) {
			t.structs = append(t.structs, structFlush{stats: stats, dst: m.structCounters(name)})
		}
		for _, t := range s.l1 {
			bind(t.name, t.tlb.Stats)
		}
		bind(energy.L2Page, s.l2.Stats)
		if s.l1rng != nil {
			bind(energy.L1Range, s.l1rng.Stats)
		}
		if s.l2rng != nil {
			bind(energy.L2Range, s.l2rng.Stats)
		}
		for _, st := range s.mmu.Structures() {
			bind(st.Name(), st.Stats)
		}
	}
	if s.ctl != nil && tr != nil {
		// Lite interval decisions are rare (one per million instructions)
		// and are what a Figure 4 drill-down needs, so they are emitted
		// unconditionally rather than sampled.
		track := t.track
		s.ctl.OnDecision(func(d lite.Decision) {
			ways := 0
			for _, w := range d.Ways {
				ways = ways*10 + w
			}
			tr.Emit(track, s.st.memRefs, "lite", "lite_decision",
				telemetry.KV{K: "interval", V: d.Interval},
				telemetry.KV{K: "mpki", V: d.ActualMPKI},
				telemetry.KV{K: "reactivated", V: d.Reactivated},
				telemetry.KV{K: "random", V: d.RandomTrig},
				telemetry.KV{K: "degraded", V: d.DegradedTrig},
				telemetry.KV{K: "ways", V: ways})
		})
	}
	s.tele = t
}

// flushTelemetry publishes the deltas since the previous flush into the
// shared registry. Allocation-free (pinned by TestFlushTelemetryAllocFree)
// and cheap enough for the 16 Ki-reference cadence: a few dozen atomic
// adds.
func (s *Simulator) flushTelemetry() {
	t := s.tele
	if t == nil || t.m == nil {
		return
	}
	m, last := t.m, &t.last
	cur := teleSnapshot{st: s.st}
	if s.rt != nil {
		cur.rangeWalks, cur.rangeRefs = s.rt.Stats()
	}
	if s.ctl != nil {
		cur.liteResizes = s.ctl.Resizes()
		cur.liteReacts = s.ctl.Reactivations()
	}
	c, l := &cur.st, &last.st
	m.accesses.Add(c.memRefs - l.memRefs)
	m.instructions.Add(c.instructions - l.instructions)
	for sz := range c.hits {
		m.hits[sz].Add(c.hits[sz] - l.hits[sz])
	}
	m.hitsRange.Add(c.hitsRange - l.hitsRange)
	m.l1Misses.Add(c.l1Misses - l.l1Misses)
	m.l2Misses.Add(c.l2Misses - l.l2Misses)
	m.walkRefs.Add(c.walkRefs - l.walkRefs)
	m.pageFaults.Add(c.pageFaults - l.pageFaults)
	m.shootdowns.Add(c.shootdowns - l.shootdowns)
	m.missCycles.Add(c.cycles - l.cycles)
	m.rangeWalks.Add(cur.rangeWalks - last.rangeWalks)
	m.rangeRefs.Add(cur.rangeRefs - last.rangeRefs)
	m.liteResizes.Add(cur.liteResizes - last.liteResizes)
	m.liteReacts.Add(cur.liteReacts - last.liteReacts)
	for a := range c.energy {
		if d := c.energy[a] - l.energy[a]; d != 0 {
			m.energy[a].Add(d)
		}
	}
	for i := range t.structs {
		f := &t.structs[i]
		st := f.stats()
		f.dst.lookups.Add(st.Lookups - f.last.Lookups)
		f.dst.hits.Add(st.Hits - f.last.Hits)
		f.dst.fills.Add(st.Fills - f.last.Fills)
		f.dst.evicts.Add(st.Evicts - f.last.Evicts)
		f.dst.invals.Add(st.Invals - f.last.Invals)
		f.last = st
	}
	t.last = cur
}

// Trace emission helpers. Each is nil-guarded so the untraced hot path
// pays one branch, mirroring the audit helpers above. Sampling uses the
// pre-increment event count (the counter was just bumped at the call
// site), so event #1 of every kind is always in the trace even when a
// run has fewer events than the sampling cadence.

func (s *Simulator) traceMiss(va uint64) {
	t := s.tele
	if t == nil || t.tr == nil || !t.tr.ShouldSample(s.st.l1Misses-1) {
		return
	}
	t.tr.Emit(t.track, s.st.memRefs, "tlb", "l1_miss",
		telemetry.KV{K: "va", V: va}, telemetry.KV{K: "miss", V: s.st.l1Misses})
}

func (s *Simulator) traceWalk(va uint64, refs int, size string) {
	t := s.tele
	if t == nil || t.tr == nil || !t.tr.ShouldSample(s.st.l2Misses-1) {
		return
	}
	t.tr.Emit(t.track, s.st.memRefs, "walk", "page_walk",
		telemetry.KV{K: "va", V: va}, telemetry.KV{K: "refs", V: refs}, telemetry.KV{K: "size", V: size})
}

func (s *Simulator) traceRangeHit(base, limit uint64) {
	t := s.tele
	if t == nil || t.tr == nil || !t.tr.ShouldSample(s.st.hitsRange-1) {
		return
	}
	t.tr.Emit(t.track, s.st.memRefs, "tlb", "range_hit",
		telemetry.KV{K: "start", V: base}, telemetry.KV{K: "end", V: limit})
}

func (s *Simulator) traceShootdown(start, end uint64, flush bool) {
	t := s.tele
	if t == nil || t.tr == nil {
		return
	}
	t.tr.Emit(t.track, s.st.memRefs, "os", "shootdown",
		telemetry.KV{K: "start", V: start}, telemetry.KV{K: "end", V: end}, telemetry.KV{K: "full_flush", V: flush})
}

func (s *Simulator) tracePageFault(va uint64) {
	t := s.tele
	if t == nil || t.tr == nil {
		return
	}
	t.tr.Emit(t.track, s.st.memRefs, "os", "page_fault", telemetry.KV{K: "va", V: va})
}
