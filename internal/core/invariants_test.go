package core

import (
	"testing"

	"xlate/internal/energy"
	"xlate/internal/trace"
	"xlate/internal/vm"
)

// TestCrossConfigInvariants runs every configuration (paper + extension)
// over the same synthetic working set and checks the accounting
// invariants that must hold regardless of configuration:
//
//	refs  = L1 hits + L1 misses
//	walks = L2 misses; walk refs ∈ [walks, 4·walks]
//	cycles = 7·L1miss + 50·L2miss (+ mispredict penalties)
//	every enabled structure's energy account is positive
//	lookups of each structure reconcile with refs/misses
func TestCrossConfigInvariants(t *testing.T) {
	kinds := append(AllConfigs(), ExtendedConfigs()...)
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			as := vm.New(vm.Config{Policy: PolicyFor(kind, 0.5), Seed: 11})
			reg, err := as.Mmap(48 << 20)
			if err != nil {
				t.Fatal(err)
			}
			p := DefaultParams(kind)
			sim, err := NewSimulator(p, as)
			if err != nil {
				t.Fatal(err)
			}
			stream := trace.Mix(5,
				trace.Weighted{Stream: trace.Zipf(window(reg), 1.6, 6), Weight: 0.8},
				trace.Weighted{Stream: trace.Uniform(window(reg), 7), Weight: 0.2},
			)
			res := mustRun(t, sim, trace.NewGenerator(stream, 3), 600_000)
			st := sim.StructureStats()

			if res.L1Hits()+res.L1Misses != res.MemRefs {
				t.Errorf("hits %d + misses %d != refs %d", res.L1Hits(), res.L1Misses, res.MemRefs)
			}

			l2 := st[energy.L2Page]
			if l2.Lookups != res.L1Misses {
				t.Errorf("L2 lookups %d != L1 misses %d", l2.Lookups, res.L1Misses)
			}
			if res.WalkRefs < res.L2Misses || res.WalkRefs > 4*res.L2Misses {
				t.Errorf("walk refs %d outside [%d, %d]", res.WalkRefs, res.L2Misses, 4*res.L2Misses)
			}

			baseCycles := 7*res.L1Misses + 50*res.L2Misses
			if res.CyclesTLBMiss < baseCycles {
				t.Errorf("cycles %d below model floor %d", res.CyclesTLBMiss, baseCycles)
			}
			if res.MispredictRate == 0 && res.CyclesTLBMiss != baseCycles {
				t.Errorf("cycles %d != model %d without mispredictions", res.CyclesTLBMiss, baseCycles)
			}

			// The L1-4KB account (also the mixed-TLB account) is always
			// live; the walk account must be live whenever walks happened.
			if res.Energy.Get(energy.AccL1Page4K) <= 0 {
				t.Error("L1 page energy not charged")
			}
			if res.L2Misses > 0 && res.Energy.Get(energy.AccPageWalk) <= 0 {
				t.Error("walks happened but no walk energy")
			}
			if res.Energy.Total() <= 0 {
				t.Error("no energy charged at all")
			}

			// Structures must pass their own invariants after a run.
			if err := checkAllStructures(sim); err != nil {
				t.Error(err)
			}
		})
	}
}

func checkAllStructures(s *Simulator) error {
	for _, t := range s.l1 {
		if err := t.tlb.CheckInvariants(); err != nil {
			return err
		}
	}
	if err := s.l2.CheckInvariants(); err != nil {
		return err
	}
	for _, st := range s.mmu.Structures() {
		if err := st.CheckInvariants(); err != nil {
			return err
		}
	}
	return nil
}

// TestLiteNeverBreaksCorrectness: way-disabling may only add misses,
// never wrong translations — with Lite enabled, the translated stream
// must produce exactly the same per-structure consistency as without,
// and MPKI may only move within the configured threshold's reach.
func TestLiteCostBounded(t *testing.T) {
	build := func(kind ConfigKind) Result {
		as := vm.New(vm.Config{Policy: PolicyFor(kind, 0.6), Seed: 4})
		reg, err := as.Mmap(32 << 20)
		if err != nil {
			t.Fatal(err)
		}
		p := DefaultParams(kind)
		p.Lite.IntervalInstrs = 100_000
		sim, err := NewSimulator(p, as)
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, sim, trace.NewGenerator(trace.Zipf(window(reg), 2.2, 3), 3), 3_000_000)
	}
	thp := build(CfgTHP)
	lite := build(CfgTLBLite)
	if lite.EnergyPJ() >= thp.EnergyPJ() {
		t.Fatalf("Lite saved nothing: %v vs %v", lite.EnergyPJ(), thp.EnergyPJ())
	}
	// The paper reports +4% L1 misses on average; allow generous slack
	// but catch runaway degradation (which would indicate the decision
	// algorithm mis-accounting).
	if lite.L1MPKI() > thp.L1MPKI()*1.5+1 {
		t.Fatalf("Lite degraded MPKI %v → %v", thp.L1MPKI(), lite.L1MPKI())
	}
}
