package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json; decoding rejects unknown keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and perfbench's
// metric and workload tables in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := loadBenchmarkFile(t)
	if !reflect.DeepEqual(f.Paths, []string{"perfbench"}) {
		t.Errorf("paths = %v", f.Paths)
	}
	if len(f.Command) < 2 || f.Command[1] != "perfbench/run.sh" {
		t.Errorf("command = %v, want the run.sh under perfbench/", f.Command)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var want []string
	for _, w := range workloadList {
		want = append(want, w.name)
		if _, ok := runners[w.name]; !ok {
			t.Errorf("workload %s has no runner", w.name)
		}
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", names, want)
	}
	for i, w := range f.Workloads {
		if i < len(workloadList) && w.Why != workloadList[i].why {
			t.Errorf("workload %s: why differs between BENCHMARK.json and metrics.go", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, perfbench %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, perfbench %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	var setupBound, maxBound float64
	for _, m := range f.EndToEnd {
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, perfbench %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, perfbench %+v", i, m, d.metric)
		}
	}
}

// TestEveryLayerMetricNamesWhatItMoves checks that each per-layer
// metric of BENCHMARK.json names at least one end-to-end metric of
// BENCHMARK.json, on a workload of BENCHMARK.json, that it should move.
func TestEveryLayerMetricNamesWhatItMoves(t *testing.T) {
	f := loadBenchmarkFile(t)
	e2e := make(map[string]bool)
	for _, m := range f.EndToEnd {
		e2e[m.Name] = true
	}
	wl := make(map[string]bool)
	for _, w := range f.Workloads {
		wl[w.Name] = true
	}
	byName := make(map[string]layerMetric)
	for _, m := range perLayer {
		byName[m.name] = m
	}
	for _, m := range f.PerLayer {
		lm, ok := byName[m.Name]
		if !ok || len(lm.moves) == 0 {
			t.Errorf("per-layer %s names no end-to-end metric it should move", m.Name)
			continue
		}
		for _, mv := range lm.moves {
			if !e2e[mv.metric] || !wl[mv.workload] {
				t.Errorf("per-layer %s should move %s on %s, which BENCHMARK.json does not define", m.Name, mv.metric, mv.workload)
			}
		}
	}
}

func TestBoundsAndDirections(t *testing.T) {
	for _, m := range append(append([]metric(nil), endToEnd...), layerMetrics()...) {
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better = %q", m.name, m.better)
		}
	}
	var names []string
	for _, m := range endToEnd {
		names = append(names, m.name)
	}
	sort.Strings(names)
	want := []string{"cell_p50_ms", "cell_p95_ms", "cells_per_s", "max_rss_mb", "mrefs_per_s", "setup_s", "wall_s"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("end-to-end metrics %v, want %v", names, want)
	}
}

func layerMetrics() []metric {
	var out []metric
	for _, m := range perLayer {
		out = append(out, m.metric)
	}
	return out
}
