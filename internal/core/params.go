// Package core wires the substrates — TLBs, MMU caches, page tables,
// range tables, the Lite controller, and the energy/performance models —
// into the per-core MMU simulator the paper's evaluation runs on, and
// defines the six simulated configurations of §5 (plus the TLB_Pred and
// Combined extensions of DESIGN.md §4):
//
//	4KB      — 4 KB pages only (Figure 1 hierarchy minus huge-page TLBs)
//	THP      — transparent huge pages: parallel L1-4KB and L1-2MB TLBs
//	TLB_Lite — THP plus the Lite way-disabling mechanism
//	RMM      — THP plus a 32-entry L2-range TLB and eager paging
//	TLB_PP   — perfect TLB_Pred: one mixed-page-size TLB per level with a
//	           free, always-correct page-size predictor (upper bound)
//	RMM_Lite — 4 KB pages + range translations at both levels, a 4-entry
//	           L1-range TLB, and Lite on the L1-4KB TLB
package core

import (
	"fmt"
	"strings"

	"xlate/internal/addr"
	"xlate/internal/audit"
	"xlate/internal/audit/inject"
	"xlate/internal/energy"
	"xlate/internal/lite"
	"xlate/internal/mmucache"
	"xlate/internal/telemetry"
	"xlate/internal/vm"
)

// ConfigKind selects one of the paper's simulated configurations.
type ConfigKind int

// The six configurations of §5, in the paper's presentation order.
const (
	Cfg4KB ConfigKind = iota
	CfgTHP
	CfgTLBLite
	CfgRMM
	CfgTLBPP
	CfgRMMLite
	// Extension configurations (not in the paper's evaluation; see
	// DESIGN.md): a realizable TLB_Pred with an actual page-size
	// predictor, and the combined design the paper suggests in §6.1 —
	// range translations + prediction-based mixed page TLBs + Lite.
	CfgTLBPred
	CfgCombined
	NumConfigs
)

// l1Layout is a configuration's set of L1 page TLBs (Figure 1).
type l1Layout uint8

const (
	l1Split l1Layout = iota // L1-4KB, L1-2MB and L1-1GB TLBs
	l1No2M                  // L1-4KB and L1-1GB TLBs: 2 MB pages are never mapped
	l1Mixed                 // one L1 TLB holding every page size
)

// config is one configuration's row: every structural and OS-policy
// choice that tells it apart from the others.
type config struct {
	name             string
	l1               l1Layout
	l1Range, l2Range bool // L1-range and L2-range TLBs present
	lite             bool // the Lite controller monitors every L1 page TLB
	predictor        bool // a fallible page-size predictor indexes the mixed L1
	thp, eager       bool // the OS policy: transparent huge pages, eager paging
	absEpsilon       bool // Lite's ε is absolute (0.1 MPKI), not relative
}

// configs is the one place configurations differ (DESIGN.md §4).
var configs = [NumConfigs]config{
	Cfg4KB:      {name: "4KB", l1: l1No2M},
	CfgTHP:      {name: "THP", l1: l1Split, thp: true},
	CfgTLBLite:  {name: "TLB_Lite", l1: l1Split, lite: true, thp: true},
	CfgRMM:      {name: "RMM", l1: l1Split, l2Range: true, thp: true, eager: true},
	CfgTLBPP:    {name: "TLB_PP", l1: l1Mixed, thp: true},
	CfgRMMLite:  {name: "RMM_Lite", l1: l1No2M, l1Range: true, l2Range: true, lite: true, eager: true, absEpsilon: true},
	CfgTLBPred:  {name: "TLB_Pred", l1: l1Mixed, predictor: true, thp: true},
	CfgCombined: {name: "Combined", l1: l1Mixed, l1Range: true, l2Range: true, lite: true, predictor: true, thp: true, eager: true, absEpsilon: true},
}

// row returns the kind's configuration, and false for a kind outside
// the table (whose zero row resolve rejects).
func (k ConfigKind) row() (config, bool) {
	if k < 0 || int(k) >= len(configs) {
		return config{}, false
	}
	return configs[k], true
}

// String returns the paper's name for the configuration.
func (k ConfigKind) String() string {
	if c, ok := k.row(); ok {
		return c.name
	}
	return fmt.Sprintf("ConfigKind(%d)", int(k))
}

// ParseConfig returns the configuration a name (case-insensitive)
// names, and false when none does.
func ParseConfig(name string) (ConfigKind, bool) {
	for k, c := range configs {
		if strings.EqualFold(c.name, name) {
			return ConfigKind(k), true
		}
	}
	return 0, false
}

// AllConfigs lists the paper's six configurations in presentation order.
func AllConfigs() []ConfigKind {
	return []ConfigKind{Cfg4KB, CfgTHP, CfgTLBLite, CfgRMM, CfgTLBPP, CfgRMMLite}
}

// ExtendedConfigs lists the extension configurations built on top of the
// paper: the realizable TLB_Pred and the §6.1 combined design.
func ExtendedConfigs() []ConfigKind {
	return []ConfigKind{CfgTLBPred, CfgCombined}
}

// Params fully parameterizes a simulation. Zero fields are filled in by
// Defaults; construct with DefaultParams and override what an experiment
// sweeps.
type Params struct {
	Kind ConfigKind

	// L1 page-TLB geometry (Sandy Bridge, Table 1).
	L14KEntries int // 64
	L14KWays    int // 4
	L12MEntries int // 32
	L12MWays    int // 4

	// L2 page-TLB geometry.
	L2Entries int // 512
	L2Ways    int // 4

	// Range-TLB geometry.
	L2RangeEntries int // 32 (RMM, RMM_Lite)
	L1RangeEntries int // 4 (RMM_Lite)

	// Lite controller configuration; used by CfgTLBLite and CfgRMMLite.
	Lite lite.Config

	// MMU paging-structure cache geometry.
	MMU mmucache.Config

	// WalkL1HitRatio is the fraction of page-walk memory references that
	// hit in the L1 data cache (1.0 = the paper's optimistic default;
	// Figure 3 sweeps it down to 0).
	WalkL1HitRatio float64

	// Performance model latencies (Table 3).
	L2LatencyCycles   int // 7
	WalkLatencyCycles int // 50

	// SeriesIntervalInstrs is the sampling interval for the per-interval
	// L1 MPKI series (Figure 4). 0 disables series collection.
	SeriesIntervalInstrs uint64

	// DemandPaging lets the simulator fault unmapped addresses into the
	// address space on first touch instead of panicking — required when
	// replaying externally recorded traces whose layout the OS model
	// never saw. Page-fault handling is an OS event outside the paper's
	// translation energy scope; faults are counted but cost no cycles or
	// energy.
	DemandPaging bool

	// PredictorEntries sizes the page-size predictor of the TLB_Pred and
	// Combined extension configurations (power of two).
	PredictorEntries int
	// MispredictPenaltyCycles is the extra latency of a re-indexed probe
	// after a page-size misprediction.
	MispredictPenaltyCycles int

	// EnergyDB prices the structures. Defaults to energy.Table2().
	EnergyDB *energy.DB

	// Audit configures the runtime integrity layer (internal/audit):
	// a differential translation/energy oracle on sampled accesses plus
	// periodic structural audits. The zero value disables it; an enabled
	// audit changes no simulation outcome, only detects corruption.
	Audit audit.Config

	// Fault is a deterministic fault to inject (internal/audit/inject),
	// used to prove the audit layer detects each corruption class. The
	// zero value injects nothing.
	Fault inject.Fault

	// Metrics, when non-nil, attaches the simulator to a shared
	// telemetry registry (see core.NewMetrics): run statistics are
	// flushed as deltas on the RunContext cancellation-check cadence, so
	// the hot path is untouched and results stay byte-identical.
	// Excluded from harness cell keys — attaching telemetry never
	// changes what a cell computes.
	//eeat:keyexcluded
	Metrics *Metrics
	// Trace, when non-nil, receives sampled structured events (L1
	// misses, page walks, range hits, shootdowns, Lite decisions) with
	// access indices. Excluded from cell keys like Metrics.
	//eeat:keyexcluded
	Trace *telemetry.Tracer
}

// DefaultParams returns the paper's configuration for the given kind:
// Sandy Bridge TLB geometry, Table 2 energies, 1 M-instruction Lite
// intervals, ε = 12.5 % relative for TLB_Lite and 0.1 MPKI absolute for
// RMM_Lite, and the optimistic walk-locality assumption.
func DefaultParams(kind ConfigKind) Params {
	p := Params{
		Kind:              kind,
		L14KEntries:       64,
		L14KWays:          4,
		L12MEntries:       32,
		L12MWays:          4,
		L2Entries:         512,
		L2Ways:            4,
		L2RangeEntries:    32,
		L1RangeEntries:    4,
		MMU:               mmucache.DefaultConfig(),
		WalkL1HitRatio:    1.0,
		L2LatencyCycles:   7,
		WalkLatencyCycles: 50,
		EnergyDB:          energy.Table2(),

		PredictorEntries:        512,
		MispredictPenaltyCycles: 1,
	}
	p.Lite = lite.DefaultConfig()
	if c, _ := kind.row(); c.absEpsilon {
		p.Lite.Epsilon = lite.AbsoluteThreshold(0.1)
	}
	return p
}

// PolicyFor returns the OS memory policy of a configuration's row:
// transparent huge pages at the workload's achievable coverage where
// the row has THP, eager paging where it has range translations. A
// kind outside the table gets the 4 KB policy; NewSimulator rejects it.
func PolicyFor(kind ConfigKind, thpCoverage float64) vm.Policy {
	c, _ := kind.row()
	if !c.thp {
		thpCoverage = 0
	}
	return vm.Policy{THP: c.thp, THPCoverage: thpCoverage, EagerPaging: c.eager}
}

// l1Spec is one L1 page TLB of a configuration's probe set (Figure 1).
type l1Spec struct {
	name          string        // energy-database key and structure name
	size          addr.PageSize // page size of the cached VPNs (4 KB for a mixed L1)
	acc           energy.Account
	entries, ways int
	mixed         bool          // keys are size-qualified (mixKey) and hold every page size
	cost          []energy.Cost // cost[w] prices a probe or fill at w active ways (set by resolveCosts)
}

// l1Specs lists the configuration's L1 page TLBs in probe order: one
// mixed L1 holding every page size, or the L1-4KB TLB, the L1-2MB TLB
// of the split layout, and Figure 1's small fully associative L1-1GB
// TLB, which the §3.1 mask keeps disabled (and free) until a 1 GB
// mapping is actually walked.
func (c config) l1Specs(p Params) []l1Spec {
	specs := []l1Spec{{name: energy.L14KB, size: addr.Page4K, acc: energy.AccL1Page4K,
		entries: p.L14KEntries, ways: p.L14KWays, mixed: c.l1 == l1Mixed}}
	if c.l1 == l1Mixed {
		return specs
	}
	if c.l1 == l1Split {
		specs = append(specs, l1Spec{name: energy.L12MB, size: addr.Page2M, acc: energy.AccL1Page2M,
			entries: p.L12MEntries, ways: p.L12MWays})
	}
	return append(specs, l1Spec{name: energy.L11GB, size: addr.Page1G, acc: energy.AccL1Page1G,
		entries: 4, ways: 4})
}

// mmuCacheNames lists the paging-structure caches in
// mmucache.Cache.Structures order.
var mmuCacheNames = [3]string{mmucache.NamePDE, mmucache.NamePDPTE, mmucache.NamePML4}

// energyCosts is a validated configuration's L1 probe table and every
// other energy cost it can charge, resolved from its database once so
// no probe, fill or walk looks one up.
type energyCosts struct {
	l1               []l1Spec
	l2, l1Rng, l2Rng energy.Cost
	mmu              [3]energy.Cost // per mmuCacheNames entry
	walkRefPJ        float64
}

// scale multiplies every cost by f. The skew-charge fault injector uses
// it to mis-price every later charge, which the auditor's independent
// re-derivation must catch.
func (c *energyCosts) scale(f float64) {
	mul := func(e *energy.Cost) { e.ReadPJ *= f; e.WritePJ *= f }
	for i := range c.l1 {
		for w := range c.l1[i].cost {
			mul(&c.l1[i].cost[w])
		}
	}
	mul(&c.l2)
	mul(&c.l1Rng)
	mul(&c.l2Rng)
	for i := range c.mmu {
		mul(&c.mmu[i])
	}
	c.walkRefPJ *= f
}

// Validate checks the parameters for consistency, including that the
// energy database prices every structure the configuration can charge.
// Every failure wraps ErrInvalidParams, so API users can classify with
// errors.Is.
func (p Params) Validate() error {
	_, err := p.resolve()
	return err
}

// maxStructureEntries bounds the entries of every translation
// structure, so a parameter set from the wire cannot make NewSimulator
// allocate without limit. It is 128× the largest structure of Table 1,
// the 512-entry L2 TLB.
const maxStructureEntries = 1 << 16

// structure is one translation structure's geometry as resolve checks
// it. A fully associative structure has as many ways as entries.
type structure struct {
	name          string
	entries, ways int
	built         bool // the configuration builds it
	pow2Ways      bool // Lite monitors it
}

// resolve validates p and resolves its energy costs; NewSimulator builds
// the hierarchy from the result.
func (p Params) resolve() (energyCosts, error) {
	c, ok := p.Kind.row()
	if !ok {
		return energyCosts{}, fmt.Errorf("core: %w: invalid config kind %d", ErrInvalidParams, int(p.Kind))
	}
	// Every structure's entries are bounded, built or not, before any
	// cost slice is sized by its ways.
	for _, s := range []structure{
		{energy.L14KB, p.L14KEntries, p.L14KWays, true, c.lite},
		{energy.L12MB, p.L12MEntries, p.L12MWays, c.l1 == l1Split, c.lite},
		{energy.L2Page, p.L2Entries, p.L2Ways, true, false},
		{energy.L1Range, p.L1RangeEntries, p.L1RangeEntries, c.l1Range, false},
		{energy.L2Range, p.L2RangeEntries, p.L2RangeEntries, c.l2Range, false},
		{mmucache.NamePDE, p.MMU.PDEEntries, p.MMU.PDEWays, true, false},
		{mmucache.NamePDPTE, p.MMU.PDPTEEntries, p.MMU.PDPTEEntries, true, false},
		{mmucache.NamePML4, p.MMU.PML4Entries, p.MMU.PML4Entries, true, false},
		{"page-size predictor", p.PredictorEntries, 1, c.predictor, false},
	} {
		if s.entries > maxStructureEntries {
			return energyCosts{}, fmt.Errorf("core: %w: %s has %d entries, above the %d-entry bound",
				ErrInvalidParams, s.name, s.entries, maxStructureEntries)
		}
		if !s.built {
			continue
		}
		if s.entries <= 0 || s.ways <= 0 || s.entries%s.ways != 0 {
			return energyCosts{}, fmt.Errorf("core: %w: bad %s geometry %d/%d", ErrInvalidParams, s.name, s.entries, s.ways)
		}
		// Lite's LRU-distance monitors bucket ways in powers of two
		// (Figure 6); non-power-of-two associativity would panic deep in
		// internal/lite at controller construction.
		if s.pow2Ways && s.ways&(s.ways-1) != 0 {
			return energyCosts{}, fmt.Errorf("core: %w: Lite requires power-of-two %s associativity, got %d",
				ErrInvalidParams, s.name, s.ways)
		}
	}
	if p.WalkL1HitRatio < 0 || p.WalkL1HitRatio > 1 {
		return energyCosts{}, fmt.Errorf("core: %w: walk L1 hit ratio %v outside [0,1]", ErrInvalidParams, p.WalkL1HitRatio)
	}
	if p.L2LatencyCycles < 0 || p.WalkLatencyCycles < 0 {
		return energyCosts{}, fmt.Errorf("core: %w: negative latency", ErrInvalidParams)
	}
	if p.EnergyDB == nil {
		return energyCosts{}, fmt.Errorf("core: %w: nil energy database", ErrInvalidParams)
	}
	if c.lite {
		if err := p.Lite.Validate(); err != nil {
			return energyCosts{}, fmt.Errorf("core: %w: %v", ErrInvalidParams, err)
		}
	}
	if c.predictor {
		if p.PredictorEntries&(p.PredictorEntries-1) != 0 {
			return energyCosts{}, fmt.Errorf("core: %w: predictor entries %d must be a power of two", ErrInvalidParams, p.PredictorEntries)
		}
		if p.MispredictPenaltyCycles < 0 {
			return energyCosts{}, fmt.Errorf("core: %w: negative mispredict penalty", ErrInvalidParams)
		}
	}
	if err := p.Fault.Validate(); err != nil {
		return energyCosts{}, fmt.Errorf("core: %w: %v", ErrInvalidParams, err)
	}
	return p.resolveCosts(c)
}

// resolveCosts looks up every cost the configuration can charge. A
// missing entry — possible in a database shipped over the wire — is a
// parameter error here rather than a panic mid-run.
func (p Params) resolveCosts(cfg config) (energyCosts, error) {
	var err error
	get := func(name string, ways int) energy.Cost {
		c, ok := p.EnergyDB.Lookup(name, ways)
		if !ok && err == nil {
			err = fmt.Errorf("core: %w: energy database has no cost for %q at %d ways", ErrInvalidParams, name, ways)
		}
		return c
	}
	c := energyCosts{l1: cfg.l1Specs(p)}
	for i := range c.l1 {
		sp := &c.l1[i]
		// Lite may run a monitored TLB at any power-of-two way count;
		// without it a TLB always runs at its physical associativity.
		sp.cost = make([]energy.Cost, sp.ways+1)
		w := sp.ways
		if cfg.lite {
			w = 1
		}
		for ; w <= sp.ways; w *= 2 {
			sp.cost[w] = get(sp.name, w)
		}
	}
	c.l2 = get(energy.L2Page, 0)
	if cfg.l1Range {
		c.l1Rng = get(energy.L1Range, 0)
	}
	if cfg.l2Range {
		c.l2Rng = get(energy.L2Range, 0)
	}
	for i, name := range mmuCacheNames {
		c.mmu[i] = get(name, 0)
	}
	get(energy.L1Cache, 0) // both priced into every walk reference
	get(energy.L2Cache, 0)
	if err != nil {
		return energyCosts{}, err
	}
	c.walkRefPJ = p.EnergyDB.WalkRefCost(p.WalkL1HitRatio)
	return c, nil
}
