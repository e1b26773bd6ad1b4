package service

import (
	"encoding/json"
	"errors"
	"slices"
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
