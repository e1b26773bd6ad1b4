package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"xlate/internal/trace"
	"xlate/internal/vm"
)

// Multicore runs several per-core MMU simulators over one shared
// address space, modeling a multi-threaded process (the paper's TLB
// hierarchy is private per core; PARSEC's canneal in Table 4 is
// multi-threaded). The page table is shared read-only; each core gets a
// private clone of the range table so background-walk statistics stay
// core-local.
type Multicore struct {
	sims []*Simulator
}

// NewMulticore builds cores simulators with identical parameters over
// the address space. The Lite controller of each core gets a distinct
// seed derived from the configured one, as each hardware instance draws
// its own random reactivations.
func NewMulticore(p Params, as *vm.AddressSpace, cores int) (*Multicore, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("core: need at least one core, got %d", cores)
	}
	m := &Multicore{}
	for i := 0; i < cores; i++ {
		pc := p
		pc.Lite.Seed = p.Lite.Seed + int64(i)*0x9e3779b9
		sim, err := NewSimulator(pc, as)
		if err != nil {
			return nil, err
		}
		if sim.rt != nil {
			sim.rt = as.RangeTable().Clone()
			if sim.aud != nil {
				// The auditor captured the shared table at construction;
				// re-point it at this core's private clone.
				sim.aud.SetRangeTable(sim.rt)
			}
		}
		m.sims = append(m.sims, sim)
	}
	return m, nil
}

// Cores returns the number of simulated cores.
func (m *Multicore) Cores() int { return len(m.sims) }

// Core returns the i-th core's simulator for inspection.
func (m *Multicore) Core(i int) *Simulator { return m.sims[i] }

// Run drives every core concurrently with its own reference generator
// (one per core, typically built with distinct seeds) for the given
// per-core instruction budget, and returns the per-core results plus
// the aggregate. Results are deterministic: each core's simulation is
// sequential and self-contained, so scheduling order cannot affect
// outcomes. A core whose run fails (see RunContext) still reports
// its partial Result; the returned error joins every core's failure.
func (m *Multicore) Run(gens []trace.RefSource, instrsPerCore uint64) ([]Result, Result, error) {
	if len(gens) != len(m.sims) {
		return nil, Result{}, fmt.Errorf("core: %d generators for %d cores", len(gens), len(m.sims))
	}
	results := make([]Result, len(m.sims))
	errs := make([]error, len(m.sims))
	var wg sync.WaitGroup
	for i := range m.sims {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = m.sims[i].RunContext(context.Background(), gens[i], instrsPerCore)
			if errs[i] != nil {
				errs[i] = fmt.Errorf("core %d: %w", i, errs[i])
			}
		}(i)
	}
	wg.Wait()
	return results, Aggregate(results), errors.Join(errs...)
}

// Aggregate sums per-core results into a whole-process view: counters
// and energy add; derived rates follow from the summed counters; the
// Lite shares are averaged weighted by references.
func Aggregate(results []Result) Result {
	var agg Result
	if len(results) == 0 {
		return agg
	}
	agg.Config = results[0].Config
	var totalRefs float64
	for _, r := range results {
		agg.Instructions += r.Instructions
		agg.MemRefs += r.MemRefs
		agg.L1Misses += r.L1Misses
		agg.L2Misses += r.L2Misses
		agg.WalkRefs += r.WalkRefs
		agg.CyclesTLBMiss += r.CyclesTLBMiss
		agg.Hits4K += r.Hits4K
		agg.Hits2M += r.Hits2M
		agg.Hits1G += r.Hits1G
		agg.HitsRange += r.HitsRange
		agg.LiteResizes += r.LiteResizes
		agg.LiteReactivations += r.LiteReactivations
		agg.Audit.Sampled += r.Audit.Sampled
		agg.Audit.StructuralAudits += r.Audit.StructuralAudits
		agg.Audit.Violations += r.Audit.Violations
		agg.Energy.Merge(&r.Energy)
		totalRefs += float64(r.MemRefs)
	}
	// Weighted averages for the share-type metrics.
	for _, r := range results {
		w := float64(r.MemRefs) / totalRefs
		agg.MispredictRate += w * r.MispredictRate
		for ti, shares := range r.LiteLookupShare {
			for len(agg.LiteLookupShare) <= ti {
				agg.LiteLookupShare = append(agg.LiteLookupShare, make([]float64, len(shares)))
			}
			for k, v := range shares {
				agg.LiteLookupShare[ti][k] += w * v
			}
		}
	}
	return agg
}
