// Micro-benchmarks of the workload compiler (internal/tracec): live
// synthesis vs replay of the same reference stream. The simulator
// layer's benches are BenchmarkAccess* in internal/core; end-to-end
// suite, replay and service throughput is measured by perfbench
// (perfbench/README.md), the repo's one benchmark.
package xlate_test

import (
	"testing"

	"xlate/internal/core"
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
