package workloads_test

import (
	"context"
	"testing"

	"xlate/internal/core"
	"xlate/internal/workloads"
)

func TestAllSpecsValidate(t *testing.T) {
	all := workloads.All()
	if len(all) != 8+15+10 {
		t.Fatalf("catalog has %d workloads", len(all))
	}
	seen := map[string]bool{}
	for _, s := range all {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Errorf("duplicate workload %q", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestFootprintsMatchTable4(t *testing.T) {
	// Table 4's "Memory" column.
	want := map[string]uint64{
		"astar":     350 << 20,
		"cactusADM": 690 << 20,
		"GemsFDTD":  860 << 20,
		"mcf":       1700 << 20,
		"omnetpp":   165 << 20,
		"zeusmp":    530 << 20,
		"canneal":   780 << 20,
		"mummer":    470 << 20,
	}
	for _, s := range workloads.TLBIntensive() {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected intensive workload %q", s.Name)
			continue
		}
		if got := s.FootprintBytes(); got != w {
			t.Errorf("%s footprint = %d MB, want %d MB", s.Name, got>>20, w>>20)
		}
		if !s.TLBIntensive {
			t.Errorf("%s should be flagged TLB intensive", s.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := workloads.ByName("mcf"); !ok {
		t.Fatal("mcf should exist")
	}
	if _, ok := workloads.ByName("nope"); ok {
		t.Fatal("unknown workload should not resolve")
	}
}

func TestValidationErrors(t *testing.T) {
	base := workloads.Spec{
		Name: "x", InstrPerRef: 3,
		Regions: []workloads.RegionSpec{{Name: "r", Bytes: 1 << 20}},
		Phases: []workloads.PhaseSpec{{Refs: 10, Access: []workloads.AccessSpec{
			{Region: 0, Weight: 1, Pattern: workloads.Uni}}}},
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := base
	bad.InstrPerRef = 0.5
	if bad.Validate() == nil {
		t.Error("low instrPerRef should fail")
	}
	bad = base
	bad.Phases = []workloads.PhaseSpec{{Refs: 10, Access: []workloads.AccessSpec{
		{Region: 5, Weight: 1, Pattern: workloads.Uni}}}}
	if bad.Validate() == nil {
		t.Error("out-of-range region should fail")
	}
	bad = base
	bad.Phases = []workloads.PhaseSpec{{Refs: 10, Access: []workloads.AccessSpec{
		{Region: 0, Weight: 1, Pattern: workloads.Seq}}}}
	if bad.Validate() == nil {
		t.Error("Seq without stride should fail")
	}
	bad = base
	bad.Phases = []workloads.PhaseSpec{{Refs: 10, Access: []workloads.AccessSpec{
		{Region: 0, Weight: 1, Pattern: workloads.Zpf, ZipfS: 1.0}}}}
	if bad.Validate() == nil {
		t.Error("Zpf with s<=1 should fail")
	}
}

func runWorkload(t *testing.T, s workloads.Spec, kind core.ConfigKind, instrs uint64, scale float64) core.Result {
	t.Helper()
	// Per-workload achievable THP coverage is region-level; the policy
	// default only matters for regions without an override.
	as, gen, err := s.Build(workloads.BuildOptions{
		Policy: core.PolicyFor(kind, 0.5), Seed: 42, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := core.NewSimulator(core.DefaultParams(kind), as)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunContext(context.Background(), gen, instrs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Calibration: the intensive set must exceed 5 L1 MPKI with 4 KB pages —
// the paper's definition of TLB intensive (§5).
func TestIntensiveSetCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("full-footprint calibration is slow")
	}
	for _, s := range workloads.TLBIntensive() {
		res := runWorkload(t, s, core.Cfg4KB, 2_000_000, 1.0)
		if got := res.L1MPKI(); got < 5 {
			t.Errorf("%s: L1 MPKI = %.2f with 4KB pages, want > 5", s.Name, got)
		}
		if res.MemRefs == 0 || res.L2Misses == 0 {
			t.Errorf("%s: degenerate run: %+v", s.Name, res)
		}
	}
}

// The paper's per-workload character: mcf and cactusADM are the
// walk-dominated workloads; canneal's misses are absorbed by the L2 TLB.
func TestWorkloadCharacter(t *testing.T) {
	if testing.Short() {
		t.Skip("full-footprint calibration is slow")
	}
	l2mpki := map[string]float64{}
	for _, name := range []string{"mcf", "cactusADM", "canneal", "omnetpp"} {
		s, _ := workloads.ByName(name)
		res := runWorkload(t, s, core.Cfg4KB, 2_000_000, 1.0)
		l2mpki[name] = res.L2MPKI()
	}
	if l2mpki["mcf"] < 2 {
		t.Errorf("mcf L2 MPKI = %.2f, want walk-heavy (>2)", l2mpki["mcf"])
	}
	if l2mpki["cactusADM"] < 2 {
		t.Errorf("cactusADM L2 MPKI = %.2f, want walk-heavy (>2)", l2mpki["cactusADM"])
	}
	if l2mpki["canneal"] > 2.5 {
		t.Errorf("canneal L2 MPKI = %.2f, want L2-absorbed (<2.5)", l2mpki["canneal"])
	}
	if l2mpki["omnetpp"] > l2mpki["mcf"] {
		t.Errorf("omnetpp (%.2f) should walk less than mcf (%.2f)",
			l2mpki["omnetpp"], l2mpki["mcf"])
	}
}

func TestLightWorkloadsAreLight(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Spot-check three Figure 12 workloads: well under the intensive
	// threshold region (the paper only requires they "stress the TLB
	// hierarchy less").
	for _, name := range []string{"namd", "swaptions", "hmmer"} {
		s, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if s.TLBIntensive {
			t.Errorf("%s should not be flagged intensive", name)
		}
		res := runWorkload(t, s, core.Cfg4KB, 1_000_000, 1.0)
		if got := res.L1MPKI(); got > 15 {
			t.Errorf("%s: L1 MPKI = %.2f, unexpectedly heavy", name, got)
		}
	}
}

func TestBuildDeterminism(t *testing.T) {
	s, _ := workloads.ByName("omnetpp")
	run := func() core.Result {
		return runWorkload(t, s, core.CfgTHP, 300_000, 0.25)
	}
	a, b := run(), run()
	if a.L1Misses != b.L1Misses || a.L2Misses != b.L2Misses || a.EnergyPJ() != b.EnergyPJ() {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestScaleShrinksFootprint(t *testing.T) {
	s, _ := workloads.ByName("astar")
	as, _, err := s.Build(workloads.BuildOptions{
		Policy: core.PolicyFor(core.Cfg4KB, 0), Seed: 1, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if got := as.Stats().Bytes4K; got > s.FootprintBytes()/5 {
		t.Fatalf("scaled footprint %d too large", got)
	}
}

func TestBuildRejectsBadOptions(t *testing.T) {
	s, _ := workloads.ByName("astar")
	if _, _, err := s.Build(workloads.BuildOptions{Scale: -1}); err == nil {
		t.Fatal("negative scale should fail")
	}
	var empty workloads.Spec
	if _, _, err := empty.Build(workloads.BuildOptions{}); err == nil {
		t.Fatal("invalid spec should fail to build")
	}
}

// Every workload must run under every configuration without panicking
// (policy/structure mismatches would panic in the simulator).
func TestAllConfigsAllIntensiveWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, s := range workloads.TLBIntensive() {
		for _, kind := range core.AllConfigs() {
			res := runWorkload(t, s, kind, 150_000, 0.2)
			if res.Instructions < 150_000 {
				t.Errorf("%s/%v: short run", s.Name, kind)
			}
		}
	}
}

// BenchmarkBuild times the input layer fig2 pays before any reference:
// Spec.Build for every TLB-intensive workload under the 4KB, THP and RMM
// policies at scale 0.1, the suite's 24 address spaces.
func BenchmarkBuild(b *testing.B) {
	kinds := []core.ConfigKind{core.Cfg4KB, core.CfgTHP, core.CfgRMM}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range workloads.TLBIntensive() {
			for _, k := range kinds {
				opt := workloads.BuildOptions{Policy: core.PolicyFor(k, 0.5), Seed: 7, Scale: 0.1}
				if _, _, err := s.Build(opt); err != nil {
					b.Fatalf("%s under %v: %v", s.Name, k, err)
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/suite")
}
