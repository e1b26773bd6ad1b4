package trace_test

import (
	"sort"
	"testing"

	"xlate/internal/trace"
	"xlate/internal/workloads"
)

// catalogZipfExponents returns every distinct Zipf exponent the
// workload catalog uses, ascending.
func catalogZipfExponents(t *testing.T) []float64 {
	t.Helper()
	seen := map[float64]bool{}
	var out []float64
	for _, spec := range workloads.All() {
		for _, ph := range spec.Phases {
			for _, a := range ph.Access {
				if a.Pattern == workloads.Zpf && !seen[a.ZipfS] {
					seen[a.ZipfS] = true
					out = append(out, a.ZipfS)
				}
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("catalog has no Zipf streams")
	}
	sort.Float64s(out)
	return out
}

// TestZipfSamplerMatchesStdlib checks the guide-table sampler against
// math/rand's Zipf draw for draw, over every catalog exponent plus
// near-1 and steep ones, at imax values from a single rank to past
// the guide's int32 range.
func TestZipfSamplerMatchesStdlib(t *testing.T) {
	exps := append(catalogZipfExponents(t), 1.0001, 1.01, 1.1, 5, 40)
	draws := 20000
	if testing.Short() {
		draws = 2000
	}
	for _, s := range exps {
		for _, imax := range []uint64{0, 1, 511, 512, 1 << 16, 1 << 30, 1 << 40} {
			for _, seed := range []int64{1, 0x5eed} {
				trace.CompareZipf(t, seed, s, imax, draws)
			}
		}
	}
}

// TestGeneratorAllocFree pins live synthesis at zero allocations per
// reference on every catalog model.
func TestGeneratorAllocFree(t *testing.T) {
	for _, spec := range workloads.All() {
		t.Run(spec.Name, func(t *testing.T) {
			_, gen, err := spec.Build(workloads.BuildOptions{Seed: 42, Scale: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			// AllocsPerRun averages over runs of batch references, so a
			// stray allocation by another goroutine (the race runtime
			// makes these) rounds away, while one allocation per batch
			// does not. Its warm-up run is one short batch, so most Zipf
			// guide buckets are first visited, and classified, inside
			// the measured runs.
			const batch, runs = 1000, 50
			allocs := testing.AllocsPerRun(runs, func() {
				for i := 0; i < batch; i++ {
					gen.Next()
				}
			})
			if allocs != 0 {
				t.Errorf("Generator.Next allocated %v times per %d references, want 0", allocs, batch)
			}
		})
	}
}
