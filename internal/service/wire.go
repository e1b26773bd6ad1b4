package service

import (
	"fmt"

	"xlate/internal/core"
	"xlate/internal/energy"
	"xlate/internal/exper"
	"xlate/internal/vm"
	"xlate/internal/workloads"
)

// WireJob is the serializable form of an exper.Job, complete enough to
// ship any cell — including sweep cells with non-default parameters or
// custom energy databases — to a remote worker and re-execute it there
// under the same content-addressed key.
//
// Params cannot marshal directly: its EnergyDB holds an unexported map,
// and Metrics/Trace are process-local attachments. EncodeJob strips all
// three and carries the energy database as canonical energy.Entry rows
// instead; Job rebuilds it. Because the harness cell key already
// identifies the database by fingerprint (not pointer) and excludes
// Metrics/Trace, a round trip through WireJob preserves the key — which
// the cluster tests assert.
//
//eeat:wire
type WireJob struct {
	Spec workloads.Spec `json:"spec"`
	// Params knowingly violates round-trip purity: EnergyDB's map is
	// unexported and Metrics/Trace are process-local pointers. EncodeJob
	// nils all three and ships the database as canonical EnergyDB rows;
	// Job() rebuilds it — the sanctioned side channel wireparity's
	// pragma below records.
	//eeatlint:allow wireparity EncodeJob strips EnergyDB/Metrics/Trace and ships canonical entries instead
	Params   core.Params    `json:"params"`
	EnergyDB []energy.Entry `json:"energy_db,omitempty"`
	Policy   vm.Policy      `json:"policy"`
	Instrs   uint64         `json:"instrs"`
	Scale    float64        `json:"scale"`
	Seed     int64          `json:"seed"`

	// TraceID and ParentSpan propagate the coordinator's trace context
	// to the worker (telemetry.TraceContext in wire form). Like
	// Params.Metrics/Trace they are observability attachments, not part
	// of what the cell *is*: Job() ignores them, so the round-tripped
	// content-addressed key — and with it the cache identity — is
	// unchanged whether or not a cell is traced.
	//eeat:keyexcluded
	TraceID string `json:"trace_id,omitempty"`
	//eeat:keyexcluded
	ParentSpan uint64 `json:"parent_span,omitempty"`
}

// EncodeJob converts an executable cell to its wire form.
func EncodeJob(j exper.Job) WireJob {
	p := j.Params
	entries := p.EnergyDB.Entries()
	p.EnergyDB = nil
	p.Metrics = nil
	p.Trace = nil
	return WireJob{
		Spec:     j.Spec,
		Params:   p,
		EnergyDB: entries,
		Policy:   j.Policy,
		Instrs:   j.Instrs,
		Scale:    j.Scale,
		Seed:     j.Seed,
	}
}

// Bounds on the cells a worker accepts, so a hostile payload cannot
// make it allocate without limit. Each admits every cell the suite
// plans at the largest accepted scale (64): the biggest catalog
// footprint, mcf's 1.66 GiB, models about 106 GiB there, and no
// experiment sizes a translation structure beyond a few hundred
// entries.
const (
	maxCellFootprintBytes = 128 << 30
	maxStructureEntries   = 1 << 16
)

// Job rebuilds the executable cell and validates it, so a malformed or
// hostile payload is rejected at the worker boundary instead of
// panicking inside the simulator.
func (w WireJob) Job() (exper.Job, error) {
	p := w.Params
	if len(w.EnergyDB) == 0 {
		return exper.Job{}, fmt.Errorf("%w: cell carries no energy database", ErrBadRequest)
	}
	p.EnergyDB = energy.FromEntries(w.EnergyDB)
	if err := p.Validate(); err != nil {
		return exper.Job{}, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	if w.Spec.Name == "" {
		return exper.Job{}, fmt.Errorf("%w: cell spec has no workload name", ErrBadRequest)
	}
	if w.Instrs == 0 || w.Scale <= 0 || w.Scale > 64 {
		return exper.Job{}, fmt.Errorf("%w: cell instrs=%d scale=%g out of range", ErrBadRequest, w.Instrs, w.Scale)
	}
	// Summed in float64 so that hostile region sizes cannot wrap
	// around to a small total.
	var footprint float64
	for _, r := range w.Spec.Regions {
		footprint += float64(r.Bytes)
	}
	if footprint*w.Scale > maxCellFootprintBytes {
		return exper.Job{}, fmt.Errorf("%w: cell footprint %.0f bytes at scale %g exceeds the %d-byte bound",
			ErrBadRequest, footprint*w.Scale, w.Scale, maxCellFootprintBytes)
	}
	for _, s := range []struct {
		name    string
		entries int
	}{
		{"L1 4KB TLB", p.L14KEntries}, {"L1 2MB TLB", p.L12MEntries}, {"L2 TLB", p.L2Entries},
		{"L1 range TLB", p.L1RangeEntries}, {"L2 range TLB", p.L2RangeEntries},
		{"page-size predictor", p.PredictorEntries},
	} {
		if s.entries > maxStructureEntries {
			return exper.Job{}, fmt.Errorf("%w: cell %s has %d entries, above the %d-entry bound",
				ErrBadRequest, s.name, s.entries, maxStructureEntries)
		}
	}
	return exper.Job{
		Spec:   w.Spec,
		Params: p,
		Policy: w.Policy,
		Instrs: w.Instrs,
		Scale:  w.Scale,
		Seed:   w.Seed,
	}, nil
}
