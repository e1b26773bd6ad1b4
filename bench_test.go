// Micro-benchmarks of the workload compiler (internal/tracec): live
// synthesis vs replay of the same reference stream, plus the fig2 suite
// through the harness. The simulator layer's benches are
// BenchmarkAccess* in internal/core; end-to-end suite, replay and
// service throughput is measured by perfbench (perfbench/README.md),
// the repo's one benchmark.
package xlate_test

import (
	"bytes"
	"context"
	"testing"

	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/harness"
	"xlate/internal/trace"
	"xlate/internal/tracec"
	"xlate/internal/workloads"
)

// The replay-vs-live pair measures producing the identical reference
// stream both ways: live synthesis pays the address-space build plus
// the generator's per-reference RNG/permutation work; replay pays the
// segment's full validation gate (Stat) plus block-at-a-time varint
// decode. DESIGN.md §15 records the measured compile-once-replay-many
// ratio.

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

// BenchmarkTraceIngest is one POST /v1/traces upload's decode and
// transcode: a 100 k-reference XLTRACE1 recording of the pair's stream
// through tracec.Ingest into a canonical segment.
func BenchmarkTraceIngest(b *testing.B) {
	spec, bopt, _ := traceBenchOptions(b)
	_, gen, err := spec.Build(bopt)
	if err != nil {
		b.Fatal(err)
	}
	const refs = 100_000
	recorded := make([]trace.Ref, refs)
	for i := range recorded {
		recorded[i] = gen.Next()
	}
	var upload bytes.Buffer
	if err := trace.WriteAll(&upload, recorded); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(upload.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tracec.Ingest(upload.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/refs, "ns/ref")
}

// BenchmarkReplayCell is one compiled replay cell end to end through
// the simulator loop: NewSimulator, then RunContext over
// Segment.Replay (mcf under TLB_Lite at scale 0.1). Unlike the
// BenchmarkAccess* benches, which call Access directly, it runs the
// block-wise RunContext loop and the segment's decode-ahead.
func BenchmarkReplayCell(b *testing.B) {
	spec, ok := workloads.ByName("mcf")
	if !ok {
		b.Fatal("no mcf workload")
	}
	const budget = 2_000_000
	bopt := workloads.BuildOptions{Policy: core.PolicyFor(core.CfgTLBLite, 0.5), Seed: 42, Scale: 0.1}
	data, _, err := tracec.CompileSpec(spec, bopt, budget)
	if err != nil {
		b.Fatal(err)
	}
	seg, err := tracec.Validate(data)
	if err != nil {
		b.Fatal(err)
	}
	as, _, err := spec.Build(bopt)
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultParams(core.CfgTLBLite)
	var refs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := core.NewSimulator(p, as)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.RunContext(context.Background(), seg.Replay(), budget)
		if err != nil {
			b.Fatal(err)
		}
		refs += res.MemRefs
	}
	b.ReportMetric(float64(refs)/1e6/b.Elapsed().Seconds(), "Mrefs/s")
}

// BenchmarkSuiteFig2 is the fig2 suite end to end through
// harness.Suite at 400 k instructions and scale 0.1: plan, the 24 cells
// in their 8 stream groups on GOMAXPROCS workers, and render.
func BenchmarkSuiteFig2(b *testing.B) {
	e, ok := exper.ByID("fig2")
	if !ok {
		b.Fatal("no fig2 experiment")
	}
	opt := exper.Options{Instrs: 400_000, Scale: 0.1, Seed: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := harness.New(harness.Config{Options: opt}).Run(context.Background(), []exper.Experiment{e})
		if err != nil {
			b.Fatal(err)
		}
		if results[0].Err != nil {
			b.Fatal(results[0].Err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/suite")
}
