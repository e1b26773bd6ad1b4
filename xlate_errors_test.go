package xlate_test

import (
	"context"
	"errors"
	"testing"

	"xlate"
	"xlate/internal/addr"
	"xlate/internal/physmem"
)

// validWorkload is a minimal well-formed custom workload the invalid
// cases below mutate one field at a time.
func validWorkload() xlate.Workload {
	return xlate.Workload{
		Name: "custom", Suite: "test", InstrPerRef: 4,
		Regions: []xlate.WorkloadRegion{{Name: "heap", Bytes: 4 << 20}},
		Phases: []xlate.WorkloadPhase{{Refs: 1 << 14, Access: []xlate.WorkloadAccess{
			{Region: 0, Weight: 1, Pattern: xlate.PatternUniform},
		}}},
	}
}

// TestInvalidParamsRejected asserts that malformed parameters surface
// as typed errors at the API boundary — never as panics.
func TestInvalidParamsRejected(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*xlate.Params)
	}{
		{"L1-4KB entries not divisible by ways", func(p *xlate.Params) { p.L14KEntries = 63 }},
		{"zero L1-4KB ways", func(p *xlate.Params) { p.L14KWays = 0 }},
		{"negative L2 entries", func(p *xlate.Params) { p.L2Entries = -4 }},
		{"zero L2-range capacity under RMM_Lite", func(p *xlate.Params) { p.L2RangeEntries = 0 }},
		{"zero L1-range capacity under RMM_Lite", func(p *xlate.Params) { p.L1RangeEntries = 0 }},
		{"walk L1 hit ratio above 1", func(p *xlate.Params) { p.WalkL1HitRatio = 1.5 }},
		{"negative walk latency", func(p *xlate.Params) { p.WalkLatencyCycles = -1 }},
		{"nil energy database", func(p *xlate.Params) { p.EnergyDB = nil }},
		{"zero Lite interval", func(p *xlate.Params) { p.Lite.IntervalInstrs = 0 }},
		{"Lite reactivation probability above 1", func(p *xlate.Params) { p.Lite.ReactivateProb = 2 }},
		{"non-power-of-two ways under Lite", func(p *xlate.Params) { p.L14KEntries, p.L14KWays = 60, 3 }},
		{"zero MMU PDE entries", func(p *xlate.Params) { p.MMU.PDEEntries = 0 }},
	}
	w := validWorkload()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := xlate.DefaultParams(xlate.CfgRMMLite)
			tc.mod(&p)
			_, err := xlate.RunParams(w, p, 1000, xlate.RunOptions{})
			if !errors.Is(err, xlate.ErrInvalidParams) {
				t.Fatalf("RunParams = %v, want ErrInvalidParams", err)
			}
		})
	}
}

// TestInvalidWorkloadRejected asserts that malformed workload models
// surface as typed errors at the API boundary.
func TestInvalidWorkloadRejected(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*xlate.Workload)
	}{
		{"no regions", func(w *xlate.Workload) { w.Regions = nil }},
		{"no phases", func(w *xlate.Workload) { w.Phases = nil }},
		{"empty region", func(w *xlate.Workload) { w.Regions[0].Bytes = 0 }},
		{"THP coverage above 1", func(w *xlate.Workload) { w.Regions[0].THPCoverage = 1.5 }},
		{"instructions per reference below 1", func(w *xlate.Workload) { w.InstrPerRef = 0.5 }},
		{"phase with zero references", func(w *xlate.Workload) { w.Phases[0].Refs = 0 }},
		{"access to missing region", func(w *xlate.Workload) { w.Phases[0].Access[0].Region = 3 }},
		{"non-positive weight", func(w *xlate.Workload) { w.Phases[0].Access[0].Weight = 0 }},
		{"sequential with zero stride", func(w *xlate.Workload) {
			w.Phases[0].Access[0].Pattern = xlate.PatternSeq
			w.Phases[0].Access[0].Stride = 0
		}},
		{"Zipf exponent not above 1", func(w *xlate.Workload) {
			w.Phases[0].Access[0].Pattern = xlate.PatternZipf
			w.Phases[0].Access[0].ZipfS = 1.0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := validWorkload()
			tc.mod(&w)
			_, err := xlate.Run(w, xlate.CfgTHP, 1000)
			if !errors.Is(err, xlate.ErrInvalidWorkload) {
				t.Fatalf("Run = %v, want ErrInvalidWorkload", err)
			}
		})
	}
}

// TestLookupErrorsWrapSentinels asserts that the name-based lookup
// entry points wrap the typed sentinels with %w, so callers can route
// on errors.Is instead of string matching.
func TestLookupErrorsWrapSentinels(t *testing.T) {
	if _, err := xlate.WorkloadByName("no-such-benchmark"); !errors.Is(err, xlate.ErrInvalidWorkload) {
		t.Errorf("WorkloadByName = %v, want ErrInvalidWorkload", err)
	}
	if _, err := xlate.RunExperiment("no-such-figure", xlate.ExperimentOptions{}); !errors.Is(err, xlate.ErrInvalidParams) {
		t.Errorf("RunExperiment = %v, want ErrInvalidParams", err)
	}
	p := xlate.DefaultParams(xlate.CfgTHP)
	if _, err := xlate.ReplayTrace(nil, p, 1000, xlate.RunOptions{}); !errors.Is(err, xlate.ErrInvalidParams) {
		t.Errorf("ReplayTrace(empty) = %v, want ErrInvalidParams", err)
	}
}

// TestReplayTraceOutOfMemoryIsError replays a trace that touches more
// 2 MB chunks than physical memory holds: the demand fault that cannot
// be backed must come back as an error wrapping the allocator's
// out-of-memory error, with the partial Result, and never as a panic or
// as a cut-short Result with a nil error.
func TestReplayTraceOutOfMemoryIsError(t *testing.T) {
	var refs []xlate.Ref
	for i := 0; i < 16; i++ {
		refs = append(refs, xlate.Ref{VA: addr.VA(1<<30 + i*addr.Bytes2M), Instrs: 1})
	}
	for _, cfg := range []xlate.Config{xlate.CfgTHP, xlate.CfgRMMLite} {
		p := xlate.DefaultParams(cfg)
		res, err := xlate.ReplayTraceWithPhysBytes(refs, p, 1000, xlate.RunOptions{}, 8<<20)
		if !errors.Is(err, physmem.ErrOutOfMemory) {
			t.Fatalf("%v: ReplayTrace error = %v, want physmem.ErrOutOfMemory", cfg, err)
		}
		if res.MemRefs == 0 || res.MemRefs >= uint64(len(refs)) {
			t.Errorf("%v: partial result covers %d refs, want the refs up to the failing fault", cfg, res.MemRefs)
		}
	}
}

// TestValidCustomWorkloadStillRuns guards against over-strict
// validation: the valid base workload must simulate cleanly.
func TestValidCustomWorkloadStillRuns(t *testing.T) {
	res, err := xlate.Run(validWorkload(), xlate.CfgTHP, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemRefs == 0 {
		t.Fatal("degenerate result")
	}
}

// TestRunParamsContextCancel asserts cooperative cancellation: a
// cancelled context stops the simulation with ctx.Err().
func TestRunParamsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := validWorkload()
	_, err := xlate.RunParamsContext(ctx, w, xlate.DefaultParams(xlate.CfgTHP), 1<<40, xlate.RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunParamsContext = %v, want context.Canceled", err)
	}
}
