package core

import (
	"testing"

	"xlate/internal/trace"
	"xlate/internal/workloads"
)

// TestAccessAllocFree pins the hot path dynamically: after warm-up,
// Access allocates nothing under any configuration (audit off). The
// hotpath analyzer checks the same property statically.
func TestAccessAllocFree(t *testing.T) {
	for _, kind := range append(AllConfigs(), ExtendedConfigs()...) {
		t.Run(kind.String(), func(t *testing.T) {
			as, reg := mkSpace(t, kind, 0.5, 64<<20)
			sim, err := NewSimulator(DefaultParams(kind), as)
			if err != nil {
				t.Fatal(err)
			}
			gen := trace.NewGenerator(trace.Zipf(window(reg), 1.1, 5), 3)
			refs := make([]trace.Ref, 1<<16)
			for i := range refs {
				refs[i] = gen.Next()
			}
			for _, r := range refs {
				sim.Access(r.VA, r.Instrs)
			}
			i := 0
			allocs := testing.AllocsPerRun(len(refs), func() {
				r := refs[i%len(refs)]
				i++
				sim.Access(r.VA, r.Instrs)
			})
			if allocs != 0 {
				t.Errorf("Access allocates %v times per reference, want 0", allocs)
			}
			if sim.Result().L2Misses == 0 {
				t.Error("stream never reached the walk path")
			}
		})
	}
}

// benchAccess times Simulator.Access alone: the workload's address space
// and a pre-generated reference slice (mcf, scale 0.25) are built, and
// the simulator warmed over one pass of it, before the timer starts.
func benchAccess(b *testing.B, kind ConfigKind) {
	spec, ok := workloads.ByName("mcf")
	if !ok {
		b.Fatal("no mcf workload")
	}
	as, gen, err := spec.Build(workloads.BuildOptions{Policy: PolicyFor(kind, 0.5), Seed: 42, Scale: 0.25})
	if err != nil {
		b.Fatal(err)
	}
	sim, err := NewSimulator(DefaultParams(kind), as)
	if err != nil {
		b.Fatal(err)
	}
	refs := make([]trace.Ref, 1<<18)
	for i := range refs {
		refs[i] = gen.Next()
	}
	for _, r := range refs {
		sim.Access(r.VA, r.Instrs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := refs[i%len(refs)]
		sim.Access(r.VA, r.Instrs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/ref")
}

func BenchmarkAccess4KB(b *testing.B)     { benchAccess(b, Cfg4KB) }
func BenchmarkAccessTHP(b *testing.B)     { benchAccess(b, CfgTHP) }
func BenchmarkAccessTLBLite(b *testing.B) { benchAccess(b, CfgTLBLite) }
func BenchmarkAccessRMMLite(b *testing.B) { benchAccess(b, CfgRMMLite) }

// BenchmarkAccessTLBPP covers the mixed L1, the one probe path that
// translates before probing (its tag embeds the page size).
func BenchmarkAccessTLBPP(b *testing.B) { benchAccess(b, CfgTLBPP) }
