// Benchmarks: one testing.B target per paper table and figure, each
// regenerating the corresponding artifact through the experiment harness
// (scaled down so `go test -bench=.` completes in minutes; run
// cmd/experiments for the full-scale numbers recorded in
// EXPERIMENTS.md), plus micro-benchmarks of the hot simulator paths.
package xlate_test

import (
	"testing"

	"xlate"
	"xlate/internal/core"
	"xlate/internal/tracec"
	"xlate/internal/workloads"
)

// benchOpt scales the artifact benches: one fifth of the footprints and
// a 1 M-instruction budget exercise every code path of each experiment.
var benchOpt = xlate.ExperimentOptions{Instrs: 1_000_000, Scale: 0.2, Seed: 42}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := xlate.RunExperiment(id, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

// --- Paper artifacts (see DESIGN.md §3 for the experiment index) ---

func BenchmarkTable1Config(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkTable2Energies(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTable3Model(b *testing.B)     { benchExperiment(b, "table3") }
func BenchmarkTable4Workloads(b *testing.B) { benchExperiment(b, "table4") }

func BenchmarkFig2Characterization(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFig3WalkLocality(b *testing.B)     { benchExperiment(b, "fig3") }
func BenchmarkFig4Downsizing(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig10Main(b *testing.B)            { benchExperiment(b, "fig10") }
func BenchmarkFig11MPKI(b *testing.B)            { benchExperiment(b, "fig11") }
func BenchmarkFig12OtherWorkloads(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkTable5ActiveWays(b *testing.B)     { benchExperiment(b, "table5") }

func BenchmarkSensitivityIntervalProb(b *testing.B) { benchExperiment(b, "sens-interval") }
func BenchmarkSensitivityThreshold(b *testing.B)    { benchExperiment(b, "sens-threshold") }
func BenchmarkSensitivityL1RangeSize(b *testing.B)  { benchExperiment(b, "sens-l1range") }
func BenchmarkAblationLite(b *testing.B)            { benchExperiment(b, "abl-lite") }
func BenchmarkStaticEnergy(b *testing.B)            { benchExperiment(b, "static") }
func BenchmarkExtensionPredictor(b *testing.B)      { benchExperiment(b, "ext-predictor") }

// --- Simulator throughput (references simulated per second) ---

func benchSimulate(b *testing.B, name string, cfg xlate.Config) {
	b.Helper()
	w, err := xlate.WorkloadByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := xlate.RunParams(w, xlate.DefaultParams(cfg), 1_000_000,
			xlate.RunOptions{Scale: 0.2, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.MemRefs), "refs/op")
	}
}

func BenchmarkSimulate4KB(b *testing.B)     { benchSimulate(b, "omnetpp", xlate.Cfg4KB) }
func BenchmarkSimulateTHP(b *testing.B)     { benchSimulate(b, "omnetpp", xlate.CfgTHP) }
func BenchmarkSimulateTLBLite(b *testing.B) { benchSimulate(b, "omnetpp", xlate.CfgTLBLite) }
func BenchmarkSimulateRMMLite(b *testing.B) { benchSimulate(b, "omnetpp", xlate.CfgRMMLite) }

// --- Workload compiler (internal/tracec): live synthesis vs replay ---

// The replay-vs-live pair measures producing the identical reference
// stream both ways: live synthesis pays the address-space build plus
// the generator's per-reference RNG/permutation work; replay pays the
// segment's full validation gate (Stat) plus block-at-a-time varint
// decode. The committed BENCH_<date>.json carries both, so the compile-
// once-replay-many speedup is pinned in the perf baseline (DESIGN.md
// §15 records the measured ratio).

// traceBenchOptions is the shared stream configuration for the pair.
func traceBenchOptions(b *testing.B) (workloads.Spec, workloads.BuildOptions, uint64) {
	b.Helper()
	spec, ok := workloads.ByName("omnetpp")
	if !ok {
		b.Fatal("no omnetpp workload")
	}
	bopt := workloads.BuildOptions{Policy: core.PolicyFor(core.CfgRMMLite, 0.5), Seed: 42, Scale: 0.2}
	return spec, bopt, 1_000_000
}

func BenchmarkTraceLiveSynthesis(b *testing.B) {
	spec, bopt, budget := traceBenchOptions(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, gen, err := spec.Build(bopt)
		if err != nil {
			b.Fatal(err)
		}
		refs := uint64(0)
		for total := uint64(0); total < budget; {
			total += gen.Next().Instrs
			refs++
		}
		b.ReportMetric(float64(refs), "refs/op")
	}
}

func BenchmarkTraceReplaySegment(b *testing.B) {
	spec, bopt, budget := traceBenchOptions(b)
	data, _, err := tracec.CompileSpec(spec, bopt, budget)
	if err != nil {
		b.Fatal(err)
	}
	// Validated once, replayed many — the executor memoizes exactly
	// this, so per-cell cost in the harness is Segment.Replay plus the
	// stream decode.
	seg, err := tracec.Validate(data)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp := seg.Replay()
		refs := uint64(0)
		for total := uint64(0); total < budget; {
			total += rp.Next().Instrs
			refs++
		}
		b.ReportMetric(float64(refs), "refs/op")
	}
}
