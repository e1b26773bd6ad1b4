package core_test

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"xlate/internal/audit"
	"xlate/internal/core"
	"xlate/internal/workloads"
)

const resultsGolden = "testdata/results.golden"

var updateResults = flag.Bool("update-results", false, "rewrite "+resultsGolden+" from this run")

// TestResultsGolden pins every Result field of every configuration on
// two workloads, energy accounts and series points by their float64
// bits, against a committed golden. The runs are short, sample an
// interval series, run Lite on short intervals so it acts, and one
// run adds the audit layer. A change to Access, the energy ledger or
// the Lite controller that moves any number fails here; regenerate
// with -update-results only when the change is meant to.
func TestResultsGolden(t *testing.T) {
	const (
		instrs   = 1_000_000
		interval = 100_000
		seed     = 7
	)
	type run struct {
		workload string
		kind     core.ConfigKind
		audit    bool
	}
	var runs []run
	for _, w := range []string{"mcf", "astar"} {
		for _, k := range append(core.AllConfigs(), core.ExtendedConfigs()...) {
			runs = append(runs, run{workload: w, kind: k})
		}
	}
	runs = append(runs, run{workload: "mcf", kind: core.CfgRMMLite, audit: true})

	var b strings.Builder
	for _, r := range runs {
		spec, ok := workloads.ByName(r.workload)
		if !ok {
			t.Fatalf("no workload %s", r.workload)
		}
		as, regions, err := spec.Map(workloads.BuildOptions{Policy: core.PolicyFor(r.kind, 0.5), Seed: seed, Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		p := core.DefaultParams(r.kind)
		p.SeriesIntervalInstrs = interval
		p.Lite.IntervalInstrs = interval
		name := r.workload + "/" + r.kind.String()
		if r.audit {
			p.Audit = audit.Config{Enabled: true, SampleEvery: 1}
			name += "/audit"
		}
		sim, err := core.NewSimulator(p, as)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunContext(context.Background(), spec.Generator(regions, seed, 0), instrs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dumpValue(&b, name, reflect.ValueOf(res))
	}
	got := b.String()

	if *updateResults {
		if err := os.WriteFile(resultsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(resultsGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-results)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got %s\nwant %s", resultsGolden, i+1, g, w)
			return
		}
	}
}

// dumpValue writes one "path = value" line per leaf of v. Floats are
// written as their IEEE-754 bits (with the decimal value after them
// for the reader), so equal lines mean bit-identical results.
func dumpValue(b *strings.Builder, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			dumpValue(b, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(b, "%s.len = %d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			dumpValue(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(b, "%s = %#016x (%g)\n", path, math.Float64bits(v.Float()), v.Float())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(b, "%s = %d\n", path, v.Uint())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(b, "%s = %d\n", path, v.Int())
	case reflect.String:
		fmt.Fprintf(b, "%s = %q\n", path, v.String())
	case reflect.Bool:
		fmt.Fprintf(b, "%s = %t\n", path, v.Bool())
	default:
		panic(fmt.Sprintf("dumpValue: %s has unsupported kind %s", path, v.Kind()))
	}
}
