package core

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"xlate/internal/addr"
	"xlate/internal/telemetry"
	"xlate/internal/trace"
	"xlate/internal/vm"
)

// telemetryRun drives one configuration over a fixed seeded workload,
// optionally attached to a registry/tracer, and returns the Result plus
// the attachments for inspection.
func telemetryRun(t *testing.T, kind ConfigKind, attach bool, w *strings.Builder) (Result, *Metrics) {
	t.Helper()
	as := vm.New(vm.Config{Policy: PolicyFor(kind, 0.5), Seed: 7})
	reg, err := as.Mmap(32 << 20)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(kind)
	p.Lite.IntervalInstrs = 100_000
	p.SeriesIntervalInstrs = 50_000
	var m *Metrics
	var tr *telemetry.Tracer
	if attach {
		m = NewMetrics(telemetry.NewRegistry())
		p.Metrics = m
		tr = telemetry.NewTracer(w, telemetry.TraceChrome, 64)
		p.Trace = tr
	}
	sim, err := NewSimulator(p, as)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunContext(context.Background(),
		trace.NewGenerator(trace.Zipf(window(reg), 1.8, 5), 3), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return res, m
}

// TestTelemetryByteIdentity pins the acceptance criterion: attaching the
// metrics registry and a sampling tracer must not change a single
// counter, energy account, series point, or Lite decision.
func TestTelemetryByteIdentity(t *testing.T) {
	for _, kind := range []ConfigKind{CfgTLBLite, CfgRMMLite, CfgCombined} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			var w strings.Builder
			plain, _ := telemetryRun(t, kind, false, nil)
			instrumented, _ := telemetryRun(t, kind, true, &w)
			if !reflect.DeepEqual(plain, instrumented) {
				t.Errorf("telemetry changed the result:\nplain:        %+v\ninstrumented: %+v",
					plain, instrumented)
			}
		})
	}
}

// TestTelemetryRegistryMatchesResult: after Result(), the flushed
// registry totals must equal the returned counters exactly — the flush
// publishes deltas, so any drift would compound.
func TestTelemetryRegistryMatchesResult(t *testing.T) {
	var w strings.Builder
	res, m := telemetryRun(t, CfgRMMLite, true, &w)

	check := func(name string, got, want uint64) {
		if got != want {
			t.Errorf("%s: registry has %d, Result has %d", name, got, want)
		}
	}
	check("accesses", m.accesses.Load(), res.MemRefs)
	check("instructions", m.instructions.Load(), res.Instructions)
	check("l1 misses", m.l1Misses.Load(), res.L1Misses)
	check("l2 misses", m.l2Misses.Load(), res.L2Misses)
	check("walk refs", m.walkRefs.Load(), res.WalkRefs)
	check("hits 4k", m.hits[addr.Page4K].Load(), res.Hits4K)
	check("hits range", m.hitsRange.Load(), res.HitsRange)
	check("miss cycles", m.missCycles.Load(), res.CyclesTLBMiss)
	check("lite resizes", m.liteResizes.Load(), res.LiteResizes)
	check("lite reactivations", m.liteReacts.Load(), res.LiteReactivations)

	var total float64
	for _, fc := range m.energy {
		total += fc.Load()
	}
	if math.Abs(total-res.EnergyPJ()) > 1e-6*res.EnergyPJ() {
		t.Errorf("energy: registry has %g pJ, Result has %g pJ", total, res.EnergyPJ())
	}
	if m.simsActive.Load() != 0 {
		t.Errorf("simsActive = %d after the run, want 0", m.simsActive.Load())
	}

	// The Prometheus rendering must carry the acceptance-criteria
	// families with non-zero samples.
	var b strings.Builder
	if err := m.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"xlate_tlb_l1_hits_total{kind=\"4k\"}",
		"xlate_tlb_l1_misses_total ",
		"xlate_walk_refs_total ",
		"xlate_energy_picojoules_total{account=",
		"xlate_lite_resizes_total ",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
}

// TestTelemetryTraceEvents: an instrumented run must emit a
// Chrome-loadable trace with the configured event plus sampled hot-path
// events.
func TestTelemetryTraceEvents(t *testing.T) {
	var w strings.Builder
	res, _ := telemetryRun(t, CfgRMMLite, true, &w)
	if res.L1Misses == 0 {
		t.Fatal("workload produced no L1 misses; trace test is vacuous")
	}

	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(w.String()), &doc); err != nil {
		t.Fatalf("trace is not Chrome-loadable JSON: %v", err)
	}
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name]++
		if ev.Ph != "i" {
			t.Fatalf("event %q has phase %q, want instant", ev.Name, ev.Ph)
		}
	}
	for _, want := range []string{"configured", "l1_miss", "page_walk", "lite_decision"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q events (got %v)", want, names)
		}
	}
}

// TestFlushTelemetryAllocFree pins the flush itself — the only telemetry
// code on the simulation path — at zero allocations.
func TestFlushTelemetryAllocFree(t *testing.T) {
	var w strings.Builder
	as := vm.New(vm.Config{Policy: PolicyFor(CfgRMMLite, 0.5), Seed: 7})
	reg, err := as.Mmap(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(CfgRMMLite)
	p.Metrics = NewMetrics(telemetry.NewRegistry())
	tr := telemetry.NewTracer(&w, telemetry.TraceJSONL, 1<<20)
	p.Trace = tr
	defer tr.Close()
	sim, err := NewSimulator(p, as)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, sim, trace.NewGenerator(trace.Uniform(window(reg), 3), 3), 50_000)
	if n := testing.AllocsPerRun(200, sim.flushTelemetry); n != 0 {
		t.Fatalf("flushTelemetry allocates %v per call, want 0", n)
	}
}

// TestIntervalSeriesAligned: the energy-per-access and active-way series
// sample the same interval boundaries as the MPKI series.
func TestIntervalSeriesAligned(t *testing.T) {
	res, _ := telemetryRun(t, CfgRMMLite, false, nil)
	n := len(res.IntervalL1MPKI.Points)
	if n == 0 {
		t.Fatal("no interval points; SeriesIntervalInstrs not honoured")
	}
	if len(res.IntervalEnergyPerRefPJ.Points) != n || len(res.IntervalLiteWays.Points) != n {
		t.Fatalf("series misaligned: mpki=%d energy=%d ways=%d",
			n, len(res.IntervalEnergyPerRefPJ.Points), len(res.IntervalLiteWays.Points))
	}
	for i, pj := range res.IntervalEnergyPerRefPJ.Points {
		if pj <= 0 {
			t.Fatalf("interval %d energy/access = %g, want > 0", i, pj)
		}
	}
	for i, ways := range res.IntervalLiteWays.Points {
		if ways < 1 || ways > 64 {
			t.Fatalf("interval %d active ways = %g, out of range", i, ways)
		}
	}
}
