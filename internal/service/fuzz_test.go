package service

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/workloads"
)

// Fuzzed cells that resolve admits run at most fuzzRunInstrs
// instructions under a fuzzRunDeadline. A cell whose modelled
// footprint at its scale exceeds fuzzRunBytes is admitted without being
// run: under 4 KB pages an address space takes about 9 MB of heap per
// modelled GiB to build, so a cell at the 128 GiB footprint bound
// needs over 1 GiB, more than a fuzz worker may use.
const (
	fuzzRunInstrs   = 20_000
	fuzzRunDeadline = 10 * time.Second
	fuzzRunBytes    = 64 << 20
)

// fuzzKinds are the configurations FuzzSubmit seeds one cell each of.
var fuzzKinds = append(core.AllConfigs(), core.ExtendedConfigs()...)

// fuzzSeedCell is the wire form of a small omnetpp cell under kind.
func fuzzSeedCell(tb testing.TB, kind core.ConfigKind) WireJob {
	tb.Helper()
	spec, ok := workloads.ByName("omnetpp")
	if !ok {
		tb.Fatal("no omnetpp workload")
	}
	w := EncodeJob(exper.NewJob(spec, core.DefaultParams(kind), exper.Options{Instrs: fuzzRunInstrs, Scale: 0.01, Seed: 7}))
	w.Spec.Regions = slices.Clone(w.Spec.Regions)
	return w
}

// FuzzSubmit mutates the numeric fields of a wire cell — TLB and
// range-TLB geometry, the MMU caches, the predictor, the first region's
// bytes, scale, instrs and the series interval — seeded with one
// EncodeJob cell per configuration. resolve must refuse each input
// with ErrBadRequest or admit it, and an admitted cell must run to a
// Result; nothing may panic. Run continuously with `make fuzz`.
func FuzzSubmit(f *testing.F) {
	for i, k := range fuzzKinds {
		w := fuzzSeedCell(f, k)
		p := w.Params
		f.Add(uint8(i), p.L14KEntries, p.L14KWays, p.L12MEntries, p.L12MWays, p.L2Entries, p.L2Ways,
			p.L1RangeEntries, p.L2RangeEntries, p.MMU.PDEEntries, p.MMU.PDEWays, p.MMU.PDPTEEntries,
			p.MMU.PML4Entries, p.PredictorEntries, w.Spec.Regions[0].Bytes, w.Scale, w.Instrs,
			p.SeriesIntervalInstrs)
	}
	f.Fuzz(func(t *testing.T, kind uint8, l14kEntries, l14kWays, l12mEntries, l12mWays, l2Entries, l2Ways,
		l1Range, l2Range, pdeEntries, pdeWays, pdpte, pml4, predictor int, regionBytes uint64, scale float64,
		instrs, interval uint64) {
		w := fuzzSeedCell(t, fuzzKinds[int(kind)%len(fuzzKinds)])
		p := &w.Params
		p.L14KEntries, p.L14KWays, p.L12MEntries, p.L12MWays = l14kEntries, l14kWays, l12mEntries, l12mWays
		p.L2Entries, p.L2Ways, p.L1RangeEntries, p.L2RangeEntries = l2Entries, l2Ways, l1Range, l2Range
		p.MMU.PDEEntries, p.MMU.PDEWays, p.MMU.PDPTEEntries, p.MMU.PML4Entries = pdeEntries, pdeWays, pdpte, pml4
		p.PredictorEntries, p.SeriesIntervalInstrs = predictor, interval
		w.Spec.Regions[0].Bytes, w.Scale, w.Instrs = regionBytes, scale, instrs

		r, err := resolve(SubmitRequest{Cell: &w}, cellDefaults{})
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("resolve refused the cell without ErrBadRequest: %v", err)
			}
			return
		}
		if float64(w.Spec.FootprintBytes())*w.Scale > fuzzRunBytes {
			return
		}
		j := r.cell
		j.Instrs = min(j.Instrs, fuzzRunInstrs)
		ctx, cancel := context.WithTimeout(context.Background(), fuzzRunDeadline)
		defer cancel()
		if _, err := exper.ExecuteJobContext(ctx, j); err != nil {
			t.Fatalf("admitted cell failed: %v", err)
		}
	})
}
