package main

import (
	"math"
	"regexp"
	"strings"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64 // 0 = no tail
	}{
		{0, 0}, {1, 0}, {19, 0},
		{20, 50}, {39, 50},
		{40, 75}, {99, 75},
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if ok != (c.want != 0) || p != c.want {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g", c.n, p, ok, c.want)
		}
	}
}

// TestTailHasTenSamplesBeyond checks the rule on the samples
// themselves: at least minBeyond distinct samples lie strictly beyond
// the reported tail, on the side where the metric gets worse.
func TestTailHasTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 2500; n += 7 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i * 7919) % n) // a permutation of 0..n-1
		}
		for _, higher := range []bool{false, true} {
			s := summarize(xs, higher)
			if s.n != n {
				t.Fatalf("n=%d: summary counts %d samples", n, s.n)
			}
			if !s.hasTail {
				if n >= 20 {
					t.Errorf("n=%d: no tail reported", n)
				}
				continue
			}
			beyond := 0
			for _, x := range xs {
				if (!higher && x > s.tail) || (higher && x < s.tail) {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d higher=%v: p%g=%g has %d samples beyond, want >= %d", n, higher, s.tailP, s.tail, beyond, minBeyond)
			}
		}
	}
}

func TestSummaryPrintsSampleCount(t *testing.T) {
	xs := make([]float64, 250)
	for i := range xs {
		xs[i] = float64(i)
	}
	got := summarize(xs, false).String()
	if !strings.Contains(got, "n=250") || !strings.Contains(got, "p95=") {
		t.Errorf("summary %q lacks the sample count or the p95 tail", got)
	}
	if got := summarize(xs, true).String(); !strings.Contains(got, "p5=") {
		t.Errorf("higher-is-better summary %q should report the low tail p5", got)
	}
	if got := summarize(xs[:5], false).String(); !strings.Contains(got, "n=5") || !strings.Contains(got, "tail=none") {
		t.Errorf("small summary %q should state its count and that it has no tail", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for p, want := range map[float64]float64{0: 1, 50: 2.5, 100: 4, 25: 1.75} {
		if got := quantile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, p, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 50)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestMetricNames(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(name, u string) {
		if !metricName.MatchString(name) || len(name) > 64 || !regexp.MustCompile(`^[A-Za-z0-9]`).MatchString(name) {
			t.Errorf("metric name %q does not match [A-Za-z0-9_.-]+ (<= 64, starting with a letter or digit)", name)
		}
		if seen[name] {
			t.Errorf("metric name %q used twice", name)
		}
		seen[name] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("metric %q: bad unit %q", name, u)
		}
	}
	for _, m := range endToEnd {
		check(m.name, m.unit)
	}
	for _, m := range perLayer {
		check(m.name, m.unit)
	}
	for _, w := range workloadList {
		check(w.name, "")
	}
}
