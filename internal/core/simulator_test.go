package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"xlate/internal/addr"
	"xlate/internal/energy"
	"xlate/internal/physmem"
	"xlate/internal/trace"
	"xlate/internal/vm"
)

// mkSpace builds an address space for the configuration with one region
// of the given size, returning the space and region.
func mkSpace(t *testing.T, kind ConfigKind, coverage float64, size uint64) (*vm.AddressSpace, vm.Region) {
	t.Helper()
	as := vm.New(vm.Config{Policy: PolicyFor(kind, coverage), Seed: 1})
	reg, err := as.Mmap(size)
	if err != nil {
		t.Fatal(err)
	}
	return as, reg
}

func window(reg vm.Region) trace.Window {
	return trace.Window{Base: reg.Base, Size: reg.Size}
}

func runSim(t *testing.T, p Params, as *vm.AddressSpace, stream trace.Stream, instrs uint64) (*Simulator, Result) {
	t.Helper()
	sim, err := NewSimulator(p, as)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, sim, trace.NewGenerator(stream, 3), instrs)
	return sim, res
}

// mustRun drives sim through RunContext and fails the test on any error.
func mustRun(t testing.TB, sim *Simulator, src trace.RefSource, instrs uint64) Result {
	t.Helper()
	res, err := sim.RunContext(context.Background(), src, instrs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigNames(t *testing.T) {
	want := []string{"4KB", "THP", "TLB_Lite", "RMM", "TLB_PP", "RMM_Lite", "TLB_Pred", "Combined"}
	for i, k := range append(AllConfigs(), ExtendedConfigs()...) {
		if k.String() != want[i] {
			t.Errorf("config %d = %q, want %q", i, k, want[i])
		}
		for _, name := range []string{want[i], strings.ToLower(want[i]), strings.ToUpper(want[i])} {
			if got, ok := ParseConfig(name); !ok || got != k {
				t.Errorf("ParseConfig(%q) = %v, %v; want %v", name, got, ok, k)
			}
		}
	}
	if got := ConfigKind(99).String(); got != "ConfigKind(99)" {
		t.Errorf("ConfigKind(99) = %q", got)
	}
	if _, ok := ParseConfig("TLB"); ok {
		t.Error("ParseConfig accepted an unknown name")
	}
}

func TestValidate(t *testing.T) {
	p := DefaultParams(Cfg4KB)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.L14KEntries = 63
	if bad.Validate() == nil {
		t.Error("63-entry 4-way should be invalid")
	}
	bad = p
	bad.WalkL1HitRatio = 1.5
	if bad.Validate() == nil {
		t.Error("hit ratio 1.5 should be invalid")
	}
	bad = p
	bad.EnergyDB = nil
	if bad.Validate() == nil {
		t.Error("nil energy DB should be invalid")
	}
}

func Test4KBSequentialHitsAfterWarmup(t *testing.T) {
	as, reg := mkSpace(t, Cfg4KB, 0, 16*addr.Bytes4K)
	// Repeatedly touch 16 pages: fits easily in the 64-entry L1.
	sim, res := runSim(t, DefaultParams(Cfg4KB), as, trace.Sequential(window(reg), 64), 300_000)
	if res.L1MPKI() > 1 {
		t.Fatalf("tiny working set should almost always hit: L1 MPKI = %v", res.L1MPKI())
	}
	// Cold misses: exactly 16 pages walked once.
	if res.L2Misses != 16 {
		t.Fatalf("L2 misses = %d, want 16 cold walks", res.L2Misses)
	}
	st := sim.StructureStats()
	if st[energy.L14KB].Hits == 0 {
		t.Fatal("L1-4KB should serve hits")
	}
	if res.Hits2M != 0 || res.HitsRange != 0 {
		t.Fatal("4KB config cannot hit in 2MB or range structures")
	}
}

func TestCycleModelExact(t *testing.T) {
	as, reg := mkSpace(t, Cfg4KB, 0, 1<<20)
	_, res := runSim(t, DefaultParams(Cfg4KB), as, trace.Sequential(window(reg), 4096), 100_000)
	want := 7*res.L1Misses + 50*res.L2Misses
	if res.CyclesTLBMiss != want {
		t.Fatalf("cycles = %d, want 7·%d + 50·%d = %d",
			res.CyclesTLBMiss, res.L1Misses, res.L2Misses, want)
	}
}

func TestEnergyEquationMatchesCounters(t *testing.T) {
	// E = A·E_read + M·E_write per structure (Table 3).
	as, reg := mkSpace(t, Cfg4KB, 0, 2<<20)
	sim, res := runSim(t, DefaultParams(Cfg4KB), as, trace.Uniform(window(reg), 2), 200_000)
	db := energy.Table2()
	st := sim.StructureStats()

	l14k := st[energy.L14KB]
	want4k := float64(l14k.Lookups)*db.Cost(energy.L14KB, 4).ReadPJ +
		float64(l14k.Fills)*db.Cost(energy.L14KB, 4).WritePJ
	if got := res.Energy.Get(energy.AccL1Page4K); math.Abs(got-want4k) > 1e-6*want4k {
		t.Errorf("L1-4KB energy = %v, want %v", got, want4k)
	}

	l2 := st[energy.L2Page]
	wantL2 := float64(l2.Lookups)*db.Cost(energy.L2Page, 0).ReadPJ +
		float64(l2.Fills)*db.Cost(energy.L2Page, 0).WritePJ
	if got := res.Energy.Get(energy.AccL2Page); math.Abs(got-wantL2) > 1e-6*wantL2 {
		t.Errorf("L2 energy = %v, want %v", got, wantL2)
	}

	// Page-walk energy: refs × L1-cache read (hit ratio 1).
	wantWalk := float64(res.WalkRefs) * db.Cost(energy.L1Cache, 0).ReadPJ
	if got := res.Energy.Get(energy.AccPageWalk); math.Abs(got-wantWalk) > 1e-6*wantWalk {
		t.Errorf("walk energy = %v, want %v", got, wantWalk)
	}

	// MMU cache energy: 3 probes per walk plus fills.
	var wantMMU float64
	for _, name := range []string{energy.PDE, energy.PDPTE, energy.PML4} {
		c := db.Cost(name, 0)
		wantMMU += float64(st[name].Lookups)*c.ReadPJ + float64(st[name].Fills)*c.WritePJ
	}
	if got := res.Energy.Get(energy.AccMMUCache); math.Abs(got-wantMMU) > 1e-6*wantMMU {
		t.Errorf("MMU cache energy = %v, want %v", got, wantMMU)
	}
}

func TestTHPUsesHugePages(t *testing.T) {
	as, reg := mkSpace(t, CfgTHP, 1.0, 64<<20)
	_, res := runSim(t, DefaultParams(CfgTHP), as, trace.Uniform(window(reg), 3), 500_000)
	if res.Hits2M == 0 {
		t.Fatal("full-coverage THP should hit in the L1-2MB TLB")
	}
	if res.Hits4K != 0 {
		t.Fatalf("no 4K pages exist at full coverage, but got %d 4K hits", res.Hits4K)
	}
	if res.Energy.Get(energy.AccL1Page2M) == 0 {
		t.Fatal("L1-2MB TLB probes should be charged once enabled")
	}
	// 64 MB = 32 huge pages fit the 32-entry L1-2MB TLB: near-zero
	// steady-state misses.
	if res.L1MPKI() > 1 {
		t.Fatalf("L1 MPKI = %v, want near zero", res.L1MPKI())
	}
}

func TestL12MBDisableMask(t *testing.T) {
	// THP config but zero coverage: no 2 MB page is ever walked, so the
	// L1-2MB TLB stays disabled and consumes no energy (§3.1).
	as, reg := mkSpace(t, CfgTHP, 0.0, 8<<20)
	sim, res := runSim(t, DefaultParams(CfgTHP), as, trace.Uniform(window(reg), 3), 300_000)
	if got := res.Energy.Get(energy.AccL1Page2M); got != 0 {
		t.Fatalf("disabled L1-2MB TLB charged %v pJ", got)
	}
	if sim.StructureStats()[energy.L12MB].Lookups != 0 {
		t.Fatal("disabled L1-2MB TLB should never be probed")
	}
}

func TestTHPReducesWalksVs4KB(t *testing.T) {
	// The headline THP effect (Figure 2b): fewer TLB-miss cycles, but
	// higher L1 lookup energy per reference.
	mk := func(kind ConfigKind) Result {
		as, reg := mkSpace(t, kind, 0.95, 256<<20)
		_, res := runSim(t, DefaultParams(kind), as, trace.Uniform(window(reg), 3), 2_000_000)
		return res
	}
	r4k := mk(Cfg4KB)
	rthp := mk(CfgTHP)
	if rthp.CyclesTLBMiss >= r4k.CyclesTLBMiss/2 {
		t.Fatalf("THP miss cycles %d not well below 4KB %d", rthp.CyclesTLBMiss, r4k.CyclesTLBMiss)
	}
	l1Per4k := r4k.Energy.L1Total() / float64(r4k.MemRefs)
	l1PerTHP := rthp.Energy.L1Total() / float64(rthp.MemRefs)
	if l1PerTHP <= l1Per4k {
		t.Fatalf("THP L1 energy/ref %v should exceed 4KB %v (extra structure probed)", l1PerTHP, l1Per4k)
	}
}

func TestRMMEliminatesWalks(t *testing.T) {
	as, reg := mkSpace(t, CfgRMM, 0.9, 256<<20)
	sim, res := runSim(t, DefaultParams(CfgRMM), as, trace.Uniform(window(reg), 3), 2_000_000)
	// One region = one range: after the first walk, the L2-range TLB
	// covers everything.
	if res.L2Misses > 5 {
		t.Fatalf("RMM L2 misses = %d, want ~1", res.L2Misses)
	}
	if res.Energy.Get(energy.AccL2Range) == 0 {
		t.Fatal("L2-range probes unaccounted")
	}
	if res.Energy.Get(energy.AccRangeWalk) == 0 {
		t.Fatal("background range-table walk energy unaccounted")
	}
	if sim.StructureStats()[energy.L2Range].Hits == 0 {
		t.Fatal("L2-range TLB should serve the L1 misses")
	}
}

func TestRMMLiteRangeHitsAndDownsizing(t *testing.T) {
	as, reg := mkSpace(t, CfgRMMLite, 0, 256<<20)
	p := DefaultParams(CfgRMMLite)
	p.Lite.Seed = 7
	_, res := runSim(t, p, as, trace.Uniform(window(reg), 3), 4_000_000)
	// One range covers the region: the 4-entry L1-range TLB serves
	// nearly every access.
	total := res.L1Hits()
	if float64(res.HitsRange)/float64(total) < 0.95 {
		t.Fatalf("range hits %d of %d — want ≥95%%", res.HitsRange, total)
	}
	// Lite should have downsized the L1-4KB TLB to 1 way for most
	// lookups (the paper's Table 5 shows 63.7% on average, higher for
	// single-structure workloads).
	share := res.LiteLookupShare[0]
	if share[0] < 0.5 {
		t.Fatalf("1-way lookup share = %v, want ≥ 0.5 (shares: %v)", share[0], share)
	}
	if res.LiteResizes == 0 {
		t.Fatal("controller never resized")
	}
}

func TestRMMLiteBeatsTHPEnergy(t *testing.T) {
	// The headline result (Figure 10): RMM_Lite spends far less dynamic
	// energy than THP on a range-friendly workload.
	run := func(kind ConfigKind) Result {
		as, reg := mkSpace(t, kind, 0.9, 128<<20)
		p := DefaultParams(kind)
		_, res := runSim(t, p, as, trace.Uniform(window(reg), 3), 3_000_000)
		return res
	}
	thp := run(CfgTHP)
	rl := run(CfgRMMLite)
	ratio := rl.EnergyPerRefPJ() / thp.EnergyPerRefPJ()
	if ratio > 0.5 {
		t.Fatalf("RMM_Lite/THP energy ratio = %.3f, want well below 0.5", ratio)
	}
}

func TestTLBPPMixedSizes(t *testing.T) {
	as, reg := mkSpace(t, CfgTLBPP, 0.5, 32<<20)
	sim, res := runSim(t, DefaultParams(CfgTLBPP), as, trace.Uniform(window(reg), 3), 1_000_000)
	// Only one L1 structure exists: all L1 energy is on the 4KB account,
	// and both page sizes hit there.
	if res.Energy.Get(energy.AccL1Page2M) != 0 {
		t.Fatal("TLB_PP has no separate 2MB structure")
	}
	if res.Hits2M == 0 || res.Hits4K == 0 {
		t.Fatalf("mixed TLB should hit both sizes: 4K=%d 2M=%d", res.Hits4K, res.Hits2M)
	}
	// Exactly one L1 probe per memory reference.
	if got := sim.StructureStats()[energy.L14KB].Lookups; got != res.MemRefs {
		t.Fatalf("L1 probes = %d, want %d", got, res.MemRefs)
	}
}

func TestWalkLocalitySweepIncreasesEnergy(t *testing.T) {
	// Figure 3: worse walk locality → more dynamic energy, 4KB pages.
	run := func(hit float64) float64 {
		as, reg := mkSpace(t, Cfg4KB, 0, 64<<20)
		p := DefaultParams(Cfg4KB)
		p.WalkL1HitRatio = hit
		_, res := runSim(t, p, as, trace.Uniform(window(reg), 11), 500_000)
		return res.EnergyPerRefPJ()
	}
	e100, e0 := run(1.0), run(0.0)
	if e0 <= e100 {
		t.Fatalf("energy at 0%% walk locality (%v) should exceed 100%% (%v)", e0, e100)
	}
}

func TestIntervalSeries(t *testing.T) {
	as, reg := mkSpace(t, Cfg4KB, 0, 4<<20)
	p := DefaultParams(Cfg4KB)
	p.SeriesIntervalInstrs = 10_000
	_, res := runSim(t, p, as, trace.Uniform(window(reg), 5), 200_000)
	if res.IntervalL1MPKI.Len() < 19 {
		t.Fatalf("series has %d points, want ~20", res.IntervalL1MPKI.Len())
	}
	// Mean of interval MPKIs ≈ overall MPKI.
	if math.Abs(res.IntervalL1MPKI.Mean()-res.L1MPKI()) > 0.15*res.L1MPKI()+0.1 {
		t.Fatalf("series mean %v far from overall MPKI %v", res.IntervalL1MPKI.Mean(), res.L1MPKI())
	}
}

func TestUnmappedAccessPanics(t *testing.T) {
	as, _ := mkSpace(t, Cfg4KB, 0, 1<<20)
	sim, err := NewSimulator(DefaultParams(Cfg4KB), as)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unmapped access should panic")
		}
	}()
	sim.Access(addr.VA(0xdead0000), 1)
}

// A demand-paged stream that touches more 2 MB chunks than physical
// memory holds ends the run with a typed error and the partial Result,
// never a panic: here 8 MB backs four chunks and the fifth touch fails.
// Access keeps hardware order on the failing reference too: it is
// counted and its L1 probes are charged (the probe precedes the walk and
// the fault), but nothing past the L1 is, since the reference has no
// translation to look up in the L2 or to walk to.
func TestDemandFaultExhaustionIsTypedError(t *testing.T) {
	for _, kind := range []ConfigKind{Cfg4KB, CfgRMMLite} {
		var refs []trace.Ref
		for i := 0; i < 16; i++ {
			refs = append(refs, trace.Ref{VA: addr.VA(1<<30 + i*addr.Bytes2M), Instrs: 1})
		}
		run := func(instrBudget uint64) (*Simulator, Result, error) {
			as := vm.New(vm.Config{Policy: PolicyFor(kind, 0), PhysBytes: 8 << 20, Seed: 1})
			p := DefaultParams(kind)
			p.DemandPaging = true
			sim, err := NewSimulator(p, as)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunContext(context.Background(), trace.NewReplay(refs), instrBudget)
			return sim, res, err
		}
		sim, res, err := run(1000)
		if !errors.Is(err, physmem.ErrOutOfMemory) {
			t.Fatalf("%v: RunContext error = %v, want physmem.ErrOutOfMemory", kind, err)
		}
		if res.PageFaults != 4 || res.MemRefs != 5 {
			t.Errorf("%v: partial result has %d faults over %d refs, want 4 over 5 (the faulting one counted)",
				kind, res.PageFaults, res.MemRefs)
		}
		if sim.Err() != err {
			t.Errorf("%v: Err() = %v, want the error RunContext returned", kind, sim.Err())
		}

		// The same run stopped just before the failing reference.
		_, before, err := run(4)
		if err != nil || before.MemRefs != 4 {
			t.Fatalf("%v: four-reference run = %d refs, %v", kind, before.MemRefs, err)
		}
		probed := []energy.Account{energy.AccL1Page4K}
		if kind == CfgRMMLite {
			probed = append(probed, energy.AccL1Range)
		}
		for _, acc := range probed {
			if res.Energy[acc] <= before.Energy[acc] {
				t.Errorf("%v: failing reference charged nothing to %v (%v pJ before, %v after)",
					kind, acc, before.Energy[acc], res.Energy[acc])
			}
		}
		for _, acc := range []energy.Account{energy.AccL2Page, energy.AccPageWalk} {
			if res.Energy[acc] != before.Energy[acc] {
				t.Errorf("%v: failing reference charged %v pJ to %v",
					kind, res.Energy[acc]-before.Energy[acc], acc)
			}
		}
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	r := Result{Instructions: 1_000_000, MemRefs: 300_000, L1Misses: 5000, L2Misses: 100,
		CyclesTLBMiss: 40_000, Hits4K: 200_000, Hits2M: 95_000}
	if r.L1MPKI() != 5 {
		t.Errorf("L1MPKI = %v", r.L1MPKI())
	}
	if r.L2MPKI() != 0.1 {
		t.Errorf("L2MPKI = %v", r.L2MPKI())
	}
	if r.L1Hits() != 295_000 {
		t.Errorf("L1Hits = %d", r.L1Hits())
	}
	if got := r.MissCycleFraction(); math.Abs(got-40_000.0/1_040_000) > 1e-12 {
		t.Errorf("MissCycleFraction = %v", got)
	}
	var zero Result
	if zero.L1MPKI() != 0 || zero.L2MPKI() != 0 || zero.MissCycleFraction() != 0 || zero.EnergyPerRefPJ() != 0 {
		t.Error("zero-value result metrics should be 0")
	}
}

func TestPolicyForMatchesConfigs(t *testing.T) {
	if PolicyFor(Cfg4KB, 0.5).THP {
		t.Error("4KB policy must not use THP")
	}
	if p := PolicyFor(CfgRMM, 0.5); !p.EagerPaging || !p.THP {
		t.Error("RMM policy needs eager paging and THP")
	}
	if p := PolicyFor(CfgRMMLite, 0.5); !p.EagerPaging || p.THP {
		t.Error("RMM_Lite policy is eager paging with 4KB pages only")
	}
}

// Failure injection: the OS breaks huge pages under memory pressure
// (§4.2.2 cites this as a reason Lite must reactivate ways). After the
// break, translations previously served by the L1-2MB TLB fall to the
// L1-4KB TLB; the degradation response must re-enable its ways.
func TestLiteReactsToHugePageBreaking(t *testing.T) {
	as := vm.New(vm.Config{Policy: PolicyFor(CfgTLBLite, 1.0), Seed: 3})
	reg, err := as.Mmap(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(CfgTLBLite)
	p.Lite.IntervalInstrs = 50_000
	p.Lite.ReactivateProb = 0 // isolate the degradation response
	sim, err := NewSimulator(p, as)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.NewGenerator(trace.Zipf(window(reg), 2.0, 9), 3)

	// Phase 1: all-huge-page phase. The 4KB TLB sees no hits, so Lite
	// shrinks it to one way.
	mustRun(t, sim, gen, 2_000_000)
	share := sim.Lite().LookupShareAtWays(0)
	if share[0] < 0.5 {
		t.Fatalf("setup: 4KB TLB should mostly run at 1 way, share=%v", share)
	}

	// Memory pressure: the OS demotes every huge page to 4KB pages.
	if n, err := as.BreakHugePages(reg); err != nil || n == 0 {
		t.Fatalf("BreakHugePages: n=%d err=%v", n, err)
	}
	// The OS shoots down the stale 2MB translations.
	sim.InvalidateRegion(reg.Base, reg.End())
	misses0 := sim.Result().L1Misses

	before := sim.Lite().Reactivations()
	mustRun(t, sim, gen, 4_000_000)
	if sim.Lite().Reactivations() == before {
		t.Fatal("degradation response did not fire after huge-page breaking")
	}
	if sim.Result().L1Misses == misses0 {
		t.Fatal("breaking huge pages should induce new L1 misses")
	}
	// And the 4KB TLB must have been re-enabled at some point: lookups
	// at 4 ways must have occurred after the break.
	shareAfter := sim.Lite().LookupShareAtWays(0)
	if shareAfter[2] <= 0 {
		t.Fatalf("4KB TLB never ran at 4 ways after break: %v", shareAfter)
	}
}

func TestTLBPredMispredictions(t *testing.T) {
	as, reg := mkSpace(t, CfgTLBPred, 0.5, 64<<20)
	sim, res := runSim(t, DefaultParams(CfgTLBPred), as, trace.Uniform(window(reg), 3), 1_000_000)
	// Half the 2MB chunks are huge pages: a region-indexed predictor is
	// imperfect but far better than chance.
	if res.MispredictRate <= 0 {
		t.Fatal("mixed page sizes must cause some mispredictions")
	}
	if res.MispredictRate > 0.45 {
		t.Fatalf("mispredict rate %.3f — predictor not learning", res.MispredictRate)
	}
	// Mispredictions cost a second physical probe.
	if got := sim.StructureStats()[energy.L14KB].Lookups; got <= res.MemRefs {
		t.Fatalf("lookups %d should exceed refs %d (re-probes)", got, res.MemRefs)
	}
	// And one extra cycle each.
	want := 7*res.L1Misses + 50*res.L2Misses
	if res.CyclesTLBMiss <= want {
		t.Fatal("mispredict penalty cycles missing")
	}
}

func TestTLBPredPerfectCoverageNeverMispredicts(t *testing.T) {
	// With a uniform page size (all 2MB or all 4KB), the predictor
	// converges and mispredicts only during its brief warmup.
	as, reg := mkSpace(t, CfgTLBPred, 1.0, 32<<20)
	_, res := runSim(t, DefaultParams(CfgTLBPred), as, trace.Uniform(window(reg), 3), 1_000_000)
	if res.MispredictRate > 0.01 {
		t.Fatalf("homogeneous pages should be near-perfectly predicted, rate=%.4f", res.MispredictRate)
	}
}

func TestCombinedConfig(t *testing.T) {
	// The §6.1 combined design: ranges at both levels + predictor-based
	// mixed page TLB + Lite. On a range-friendly workload it should at
	// least match RMM_Lite's structure behaviour.
	as, reg := mkSpace(t, CfgCombined, 0.8, 128<<20)
	p := DefaultParams(CfgCombined)
	sim, res := runSim(t, p, as, trace.Uniform(window(reg), 3), 3_000_000)
	if res.HitsRange == 0 {
		t.Fatal("combined config should hit in the L1-range TLB")
	}
	if res.L2Misses > 5 {
		t.Fatalf("ranges should eliminate walks, L2 misses = %d", res.L2Misses)
	}
	if sim.Lite() == nil {
		t.Fatal("combined config must run Lite")
	}
	if res.LiteLookupShare[0][0] < 0.5 {
		t.Fatalf("Lite should downsize the mixed TLB behind the range TLB: %v", res.LiteLookupShare[0])
	}
}

func TestPredictorValidation(t *testing.T) {
	p := DefaultParams(CfgTLBPred)
	p.PredictorEntries = 100 // not a power of two
	if p.Validate() == nil {
		t.Fatal("non-power-of-two predictor should be invalid")
	}
	p = DefaultParams(CfgTLBPred)
	p.MispredictPenaltyCycles = -1
	if p.Validate() == nil {
		t.Fatal("negative penalty should be invalid")
	}
	// Non-predictor configs ignore the predictor fields.
	p = DefaultParams(Cfg4KB)
	p.PredictorEntries = 0
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExtendedConfigNames(t *testing.T) {
	if CfgTLBPred.String() != "TLB_Pred" || CfgCombined.String() != "Combined" {
		t.Fatal("extension config names wrong")
	}
	if len(ExtendedConfigs()) != 2 {
		t.Fatal("two extension configs expected")
	}
}

func TestInvalidateRegionSmall(t *testing.T) {
	as, reg := mkSpace(t, CfgTHP, 0.5, 4<<20)
	sim, _ := runSim(t, DefaultParams(CfgTHP), as, trace.Uniform(window(reg), 3), 200_000)
	// Shoot down the first 1 MB (256 pages < flush threshold).
	st0 := sim.StructureStats()
	sim.InvalidateRegion(reg.Base, reg.Base+addr.VA(1<<20))
	st1 := sim.StructureStats()
	if st1[energy.L14KB].Invals <= st0[energy.L14KB].Invals &&
		st1[energy.L12MB].Invals <= st0[energy.L12MB].Invals {
		t.Fatal("shootdown removed nothing")
	}
	// Functionally: the next accesses to the shot-down region must miss
	// and re-walk (the mappings still exist; only cached translations
	// died).
	l2missBefore := sim.Result().L2Misses
	sim.Access(reg.Base+0x100, 3)
	if sim.Result().L2Misses == l2missBefore {
		t.Fatal("access after shootdown should re-walk")
	}
}

func TestInvalidateRegionLargeFlushes(t *testing.T) {
	as, reg := mkSpace(t, CfgRMMLite, 0, 16<<20)
	sim, _ := runSim(t, DefaultParams(CfgRMMLite), as, trace.Uniform(window(reg), 3), 200_000)
	sim.InvalidateRegion(reg.Base, reg.End()) // 4096 pages → full flush
	st := sim.StructureStats()
	// Range TLBs must have dropped the overlapping range.
	if st[energy.L1Range].Invals == 0 && st[energy.L2Range].Invals == 0 {
		t.Fatal("range TLBs kept a shot-down range")
	}
	// Empty or reversed regions are no-ops.
	before := sim.StructureStats()[energy.L14KB].Invals
	sim.InvalidateRegion(reg.End(), reg.Base)
	if sim.StructureStats()[energy.L14KB].Invals != before {
		t.Fatal("reversed region should be a no-op")
	}
}

func TestInvalidateRegionMixedTLB(t *testing.T) {
	as, reg := mkSpace(t, CfgTLBPP, 0.5, 4<<20)
	sim, _ := runSim(t, DefaultParams(CfgTLBPP), as, trace.Uniform(window(reg), 3), 200_000)
	inv0 := sim.StructureStats()[energy.L14KB].Invals
	sim.InvalidateRegion(reg.Base, reg.End()&^addr.VA(addr.Bytes2M-1))
	if sim.StructureStats()[energy.L14KB].Invals <= inv0 {
		t.Fatal("mixed TLB shootdown removed nothing")
	}
}

func TestGBPagesEndToEnd(t *testing.T) {
	// Figure 1's L1-1GB TLB, exercised end to end: a 2 GB region backed
	// by 1 GB pages under an explicit huge-page policy.
	as := vm.New(vm.Config{
		Policy:    vm.Policy{THP: true, THPCoverage: 1.0, GBPages: true},
		PhysBytes: 8 << 30, Seed: 1})
	reg, err := as.Mmap(2 << 30)
	if err != nil {
		t.Fatal(err)
	}
	sim, res := runSim(t, DefaultParams(CfgTHP), as, trace.Uniform(window(reg), 3), 500_000)
	if res.Hits1G == 0 {
		t.Fatal("1GB TLB should serve hits")
	}
	if res.Hits4K != 0 || res.Hits2M != 0 {
		t.Fatalf("all-GB region should not hit smaller TLBs: %+v", res)
	}
	if res.Energy.Get(energy.AccL1Page1G) == 0 {
		t.Fatal("1GB TLB probes should be charged once enabled")
	}
	// Two pages in a 4-entry TLB: near-zero steady-state misses. The
	// first cold walk takes 2 references (paper §3.2); the second hits
	// the PML4 paging-structure cache and takes 1.
	if res.L2Misses != 2 || res.WalkRefs != 3 {
		t.Fatalf("L2 misses %d (want 2), walk refs %d (want 3)", res.L2Misses, res.WalkRefs)
	}
	if sim.StructureStats()[energy.L11GB].Hits == 0 {
		t.Fatal("structure stats missing 1GB TLB")
	}
}

func TestGBTLBDisabledWithoutGBPages(t *testing.T) {
	// The §3.1 mask: no 1GB mapping was ever walked, so the L1-1GB TLB
	// must never be probed nor charged.
	as, reg := mkSpace(t, CfgTHP, 0.5, 16<<20)
	sim, res := runSim(t, DefaultParams(CfgTHP), as, trace.Uniform(window(reg), 3), 300_000)
	if got := res.Energy.Get(energy.AccL1Page1G); got != 0 {
		t.Fatalf("disabled L1-1GB TLB charged %v pJ", got)
	}
	if sim.StructureStats()[energy.L11GB].Lookups != 0 {
		t.Fatal("disabled L1-1GB TLB was probed")
	}
}

func TestLiteMonitorsGBTLB(t *testing.T) {
	// Under TLB_Lite with 1GB pages active, Lite monitors all three
	// L1-page TLBs and can downsize the mostly-idle ones.
	as := vm.New(vm.Config{
		Policy:    vm.Policy{THP: true, THPCoverage: 1.0, GBPages: true},
		PhysBytes: 8 << 30, Seed: 1})
	reg, err := as.Mmap(2 << 30)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(CfgTLBLite)
	p.Lite.IntervalInstrs = 100_000
	p.Lite.ReactivateProb = 0
	_, res := runSim(t, p, as, trace.Uniform(window(reg), 3), 2_000_000)
	if len(res.LiteLookupShare) != 3 {
		t.Fatalf("Lite should monitor 3 TLBs, got %d", len(res.LiteLookupShare))
	}
	// With everything served by 2 resident GB pages, the 4KB TLB is
	// useless and must shrink.
	if res.LiteLookupShare[0][0] < 0.5 {
		t.Fatalf("idle 4KB TLB not downsized: %v", res.LiteLookupShare[0])
	}
}
