package telemetry

import (
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
)

func TestRegistryHandlesAreShared(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("xlate_test_total", "a test counter", L("kind", "x"))
	b := r.Counter("xlate_test_total", "a test counter", L("kind", "x"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := r.Counter("xlate_test_total", "a test counter", L("kind", "y"))
	if a == c {
		t.Fatal("distinct labels returned the same counter")
	}
	a.Add(3)
	if b.Load() != 3 {
		t.Fatalf("shared handle sees %d, want 3", b.Load())
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("xlate_conflict", "c")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("xlate_conflict", "g")
}

func TestPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("xlate_hits_total", "hits by kind", L("kind", "4k")).Add(7)
	r.Counter("xlate_hits_total", "hits by kind", L("kind", "range")).Add(2)
	r.FloatCounter("xlate_energy_pj_total", "energy").Add(1.5)
	r.Gauge("xlate_inflight", "in-flight cells").Set(3)
	h := r.Histogram("xlate_cell_seconds", "cell latency", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE xlate_hits_total counter",
		`xlate_hits_total{kind="4k"} 7`,
		`xlate_hits_total{kind="range"} 2`,
		"xlate_energy_pj_total 1.5",
		"# TYPE xlate_inflight gauge",
		"xlate_inflight 3",
		"# TYPE xlate_cell_seconds histogram",
		`xlate_cell_seconds_bucket{le="0.1"} 1`,
		`xlate_cell_seconds_bucket{le="1"} 2`,
		`xlate_cell_seconds_bucket{le="10"} 2`,
		`xlate_cell_seconds_bucket{le="+Inf"} 3`,
		"xlate_cell_seconds_sum 100.55",
		"xlate_cell_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}

	// Two scrapes of identical state must be byte-identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if out != b2.String() {
		t.Error("repeated scrapes of unchanged state differ")
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("xlate_a_total", "a", L("k", "v")).Add(4)
	h := r.Histogram("xlate_h", "h", []float64{1})
	h.Observe(0.5)
	h.Observe(2)

	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d metrics, want 2", len(snap))
	}
	if snap[0].Name != "xlate_a_total" || snap[0].Value != 4 || snap[0].Labels["k"] != "v" {
		t.Errorf("counter snapshot wrong: %+v", snap[0])
	}
	if snap[1].Count != 2 || snap[1].Sum != 2.5 {
		t.Errorf("histogram snapshot wrong: %+v", snap[1])
	}
}

func TestFloatCounterConcurrent(t *testing.T) {
	var c FloatCounter
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				c.Add(0.5)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if got := c.Load(); got != 2000 {
		t.Fatalf("concurrent float adds lost updates: %v, want 2000", got)
	}
}

func TestServer(t *testing.T) {
	r := NewRegistry()
	r.Counter("xlate_served_total", "served").Add(9)
	srv, err := NewServer("127.0.0.1:0", r, func() any {
		return map[string]int{"cells": 5}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if m := get("/metrics"); !strings.Contains(m, "xlate_served_total 9") {
		t.Errorf("/metrics missing counter:\n%s", m)
	}
	st := get("/status")
	if !strings.Contains(st, `"cells": 5`) || !strings.Contains(st, "xlate_served_total") {
		t.Errorf("/status missing run info or metrics:\n%s", st)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	// 100 samples uniformly in (1,2]: the whole distribution sits in
	// bucket (1,2], so quantiles interpolate linearly across it.
	for i := 0; i < 100; i++ {
		h.Observe(1.5)
	}
	if got := h.Quantile(0.5); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("p50 = %v, want 1.5", got)
	}
	if got := h.Quantile(1); math.Abs(got-2) > 1e-9 {
		t.Errorf("p100 = %v, want 2 (bucket upper bound)", got)
	}
	// A sample beyond the last finite bound clamps there.
	h.Observe(100)
	if got := h.Quantile(1); got != 8 {
		t.Errorf("p100 with +Inf sample = %v, want clamp to 8", got)
	}
}
