package service

import (
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"xlate/internal/core"
	"xlate/internal/energy"
	"xlate/internal/exper"
	"xlate/internal/harness"
	"xlate/internal/workloads"
)

func wireTestJob(t *testing.T) exper.Job {
	t.Helper()
	spec, ok := workloads.ByName("mcf")
	if !ok {
		t.Fatal("no mcf workload")
	}
	return exper.Job{
		Spec:   spec,
		Params: core.DefaultParams(core.CfgRMM),
		Policy: core.PolicyFor(core.CfgRMM, 0.5),
		Instrs: 1_000_000,
		Scale:  0.25,
		Seed:   7,
	}
}

// The cluster's correctness rests on the wire form preserving the cell
// key: a worker must compute (and cache) exactly the cell the
// coordinator hashed onto the ring.
func TestWireJobPreservesKey(t *testing.T) {
	j := wireTestJob(t)
	want := harness.JobKey(j)

	b, err := json.Marshal(EncodeJob(j))
	if err != nil {
		t.Fatal(err)
	}
	var w WireJob
	if err := json.Unmarshal(b, &w); err != nil {
		t.Fatal(err)
	}
	back, err := w.Job()
	if err != nil {
		t.Fatal(err)
	}
	if got := harness.JobKey(back); got != want {
		t.Errorf("cell key changed across the wire: %s != %s", got, want)
	}
}

// Sweep experiments ship custom energy databases (internal/exper/sens);
// the wire form must carry the full database, not assume Table 2.
func TestWireJobCustomEnergyDB(t *testing.T) {
	j := wireTestJob(t)
	db := energy.Table2()
	db.Register(energy.L2Page, 0, energy.Cost{ReadPJ: 99.5, WritePJ: 1.25, LeakMW: 3})
	j.Params.EnergyDB = db
	want := harness.JobKey(j)

	b, err := json.Marshal(EncodeJob(j))
	if err != nil {
		t.Fatal(err)
	}
	var w WireJob
	if err := json.Unmarshal(b, &w); err != nil {
		t.Fatal(err)
	}
	back, err := w.Job()
	if err != nil {
		t.Fatal(err)
	}
	if back.Params.EnergyDB.Fingerprint() != db.Fingerprint() {
		t.Error("energy database fingerprint changed across the wire")
	}
	if got := harness.JobKey(back); got != want {
		t.Errorf("custom-DB cell key changed across the wire: %s != %s", got, want)
	}
}

func TestWireJobRejectsGarbage(t *testing.T) {
	cases := map[string]WireJob{
		"empty":     {},
		"no-energy": func() WireJob { w := EncodeJob(wireTestJob(t)); w.EnergyDB = nil; return w }(),
		"bad-scale": func() WireJob { w := EncodeJob(wireTestJob(t)); w.Scale = -1; return w }(),
		"bad-geom": func() WireJob {
			w := EncodeJob(wireTestJob(t))
			w.Params.L14KEntries = -4
			return w
		}(),
		// A database missing a cost the configuration can charge (here
		// the L1-2MB TLB at 2 ways, reached once Lite shrinks it).
		"partial-energy": func() WireJob {
			j := wireTestJob(t)
			j.Params = core.DefaultParams(core.CfgTLBLite)
			w := EncodeJob(j)
			w.EnergyDB = slices.DeleteFunc(w.EnergyDB, func(e energy.Entry) bool {
				return e.Name == energy.L12MB && e.Ways == 2
			})
			return w
		}(),
	}
	for name, w := range cases {
		_, err := w.Job()
		if !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: Job() = %v, want ErrBadRequest", name, err)
		}
	}
	if _, err := cases["partial-energy"].Job(); !errors.Is(err, core.ErrInvalidParams) {
		t.Errorf("partial-energy: Job() = %v, want it to wrap core.ErrInvalidParams", err)
	}
}

// A wire-cell submission resolves to the same job and key the
// coordinator computed, and rejects parameter smuggling alongside it.
func TestResolveCell(t *testing.T) {
	j := wireTestJob(t)
	wire := EncodeJob(j)
	r, err := resolve(SubmitRequest{Cell: &wire}, cellDefaults{})
	if err != nil {
		t.Fatal(err)
	}
	if r.kind != kindCell {
		t.Fatalf("kind = %q, want cell", r.kind)
	}
	if r.key != harness.JobKey(j) {
		t.Error("resolved key differs from the coordinator-side key")
	}

	if _, err := resolve(SubmitRequest{Cell: &wire, Workload: "mcf"}, cellDefaults{}); err == nil {
		t.Error("cell+workload submission accepted")
	}
	if _, err := resolve(SubmitRequest{Cell: &wire, Instrs: 5}, cellDefaults{}); err == nil {
		t.Error("cell+instrs submission accepted")
	}
	if _, err := resolve(SubmitRequest{Cell: &wire}, cellDefaults{maxInstrs: 10}); err == nil {
		t.Error("cell over the admission cap accepted")
	}
}

// Cells whose modelled footprint or structure sizes would make a
// worker allocate without limit are refused, with the bound named.
func TestWireJobRejectsHostileSizes(t *testing.T) {
	cases := []struct {
		name string
		edit func(w *WireJob)
		want string
	}{
		{"huge region", func(w *WireJob) { w.Spec.Regions[0].Bytes = 1 << 46 }, "137438953472-byte bound"},
		{"wrapping regions", func(w *WireJob) {
			w.Spec.Regions = append(w.Spec.Regions, w.Spec.Regions[0], w.Spec.Regions[0])
			w.Spec.Regions[1].Bytes, w.Spec.Regions[2].Bytes = 1<<63, 1<<63
		}, "137438953472-byte bound"},
		{"footprint at scale", func(w *WireJob) { w.Spec.Regions[0].Bytes = 4 << 30; w.Scale = 64 }, "137438953472-byte bound"},
		{"L1 4KB", func(w *WireJob) { w.Params.L14KEntries, w.Params.L14KWays = 1<<20, 4 }, "L1 4KB TLB has 1048576 entries, above the 65536-entry bound"},
		{"L1 2MB", func(w *WireJob) { w.Params.L12MEntries, w.Params.L12MWays = 1<<20, 4 }, "65536-entry bound"},
		{"L2", func(w *WireJob) { w.Params.L2Entries, w.Params.L2Ways = 1<<20, 4 }, "65536-entry bound"},
		{"L1 range", func(w *WireJob) { w.Params.L1RangeEntries = 1 << 20 }, "65536-entry bound"},
		{"L2 range", func(w *WireJob) { w.Params.L2RangeEntries = 1 << 20 }, "65536-entry bound"},
		{"predictor", func(w *WireJob) { w.Params.PredictorEntries = 1 << 20 }, "page-size predictor has 1048576 entries"},
	}
	for _, tc := range cases {
		w := EncodeJob(wireTestJob(t))
		w.Spec.Regions = slices.Clone(w.Spec.Regions)
		tc.edit(&w)
		_, err := w.Job()
		if !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Job() = %v, want ErrBadRequest naming %q", tc.name, err, tc.want)
		}
	}
}

// boundsChecker is an exper.Runner that sends every cell an experiment
// asks for through the wire form and answers with a placeholder
// result whose counters are all nonzero, so ratios stay finite.
type boundsChecker struct {
	t     *testing.T
	cells int
}

func (b *boundsChecker) RunCell(j exper.Job) (core.Result, error) {
	b.cells++
	if _, err := EncodeJob(j).Job(); err != nil {
		b.t.Errorf("%s/%v at scale %g refused: %v", j.Spec.Name, j.Params.Kind, j.Scale, err)
	}
	res := core.Result{Instructions: 1000, MemRefs: 500, L1Misses: 100, L2Misses: 10, WalkRefs: 40,
		Hits4K: 100, Hits2M: 100, Hits1G: 100, HitsRange: 100, LiteResizes: 1, MispredictRate: 0.01,
		LiteLookupShare: [][]float64{{0.25, 0.25, 0.5}, {0.25, 0.25, 0.5}, {0.25, 0.25, 0.5}}}
	res.Energy[0] = 1
	return res, nil
}

// The bounds admit every cell the suite plans at the largest accepted
// scale.
func TestWireBoundsAdmitPlannedCells(t *testing.T) {
	b := &boundsChecker{t: t}
	opt := exper.Options{Instrs: 1_000_000, Scale: 64, Seed: 42, Runner: b}
	for _, e := range exper.All() {
		if _, err := e.Run(opt); err != nil {
			t.Errorf("planning %s: %v", e.ID, err)
		}
	}
	if b.cells == 0 {
		t.Fatal("the suite planned no cells")
	}
}
