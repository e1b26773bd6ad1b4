// Package exper implements the experiment harness: one runner per table
// and figure of the paper's characterization (§3) and evaluation (§6),
// plus the sensitivity analyses and the ablations DESIGN.md calls out.
// Each experiment reproduces the corresponding artifact's rows/series;
// EXPERIMENTS.md records measured-vs-paper for all of them.
package exper

import (
	"cmp"
	"context"
	"fmt"
	"sort"

	"xlate/internal/audit"
	"xlate/internal/audit/inject"
	"xlate/internal/core"
	"xlate/internal/stats"
	"xlate/internal/telemetry"
	"xlate/internal/trace"
	"xlate/internal/vm"
	"xlate/internal/workloads"
)

// Options parameterizes a harness run.
type Options struct {
	// Instrs is the instruction budget per simulation (default 20 M).
	// The paper simulates 50 B instructions after a 50 B fast-forward;
	// the synthetic workloads are stationary per phase and converge
	// within a few million instructions (DESIGN.md §1).
	Instrs uint64
	// Scale multiplies workload footprints (default 1.0). Benches use
	// smaller scales to bound setup time; shapes degrade below ~0.5.
	Scale float64
	// Seed drives all randomness.
	Seed int64
	// Runner, when non-nil, executes every simulation cell on behalf of
	// the experiment. The harness installs recording and serving runners
	// here to plan, parallelize, and memoize cells; nil runs each cell
	// inline via ExecuteJobContext.
	Runner Runner
	// Audit, when enabled, attaches the runtime integrity layer
	// (internal/audit) to every cell's simulator; a violation fails the
	// cell with a typed audit.ViolationError, marking the dependent
	// artifacts not-reproduced.
	Audit audit.Config
	// Inject is a deterministic fault to corrupt every cell with
	// (internal/audit/inject) — combined with Audit it proves end to end
	// that injected corruption is detected.
	Inject inject.Fault
	// Metrics, when non-nil, attaches every cell's simulator to the
	// shared telemetry registry (flushed deltas; see core.Metrics).
	// Observation-only: results stay byte-identical.
	Metrics *core.Metrics
	// Trace, when non-nil, receives sampled structured events from every
	// cell's simulator. Observation-only like Metrics.
	Trace *telemetry.Tracer
}

// Job is one simulation cell: a workload built under an OS policy and
// simulated with one parameter set. Experiments funnel every simulation
// through a Job so an external Runner can execute them in parallel,
// checkpoint them, and recover panics, while the zero Options still
// runs them inline.
type Job struct {
	Spec   workloads.Spec
	Params core.Params
	Policy vm.Policy
	Instrs uint64
	Scale  float64
	Seed   int64
}

// NewJob is the cell that simulates spec with p at opt's budget, scale
// and seed (defaults filled in), on the address space spec builds under
// the OS policy of p's configuration with THP at half the achievable
// coverage.
func NewJob(spec workloads.Spec, p core.Params, opt Options) Job {
	opt = opt.WithDefaults()
	return Job{Spec: spec, Params: p, Policy: core.PolicyFor(p.Kind, 0.5), Instrs: opt.Instrs, Scale: opt.Scale, Seed: opt.Seed}
}

// Bounds on one cell, so that no cell can make the process allocate
// without limit. Each admits every cell the suite plans at the largest
// scale: mcf's 1.66 GiB footprint models about 106 GiB at scale 64, and
// the interval experiments collect max(16, Instrs/1 M) points per
// series. Every structure's entries are bounded by core.Params.Validate.
const (
	maxScale          = 64
	maxFootprintBytes = 128 << 30
	maxSeriesPoints   = 1 << 20
)

// Check validates the cell before anything is built for it: its
// parameters, its scale, its modelled footprint at that scale, and the
// points each of its three series would collect. Every failure wraps
// core.ErrInvalidParams or workloads.ErrInvalidSpec.
func (j Job) Check() error {
	if err := j.Params.Validate(); err != nil {
		return err
	}
	if err := (Options{Scale: j.Scale}).Check(); err != nil {
		return err
	}
	scale := cmp.Or(j.Scale, 1)
	// Summed in float64 so that hostile region sizes cannot wrap
	// around to a small total.
	var footprint float64
	for _, r := range j.Spec.Regions {
		footprint += float64(r.Bytes)
	}
	if footprint*scale > maxFootprintBytes {
		return fmt.Errorf("exper: %w: %s footprint %.0f bytes at scale %g exceeds the %d-byte bound",
			workloads.ErrInvalidSpec, j.Spec.Name, footprint*scale, scale, maxFootprintBytes)
	}
	if iv := j.Params.SeriesIntervalInstrs; iv > 0 && j.Instrs/iv > maxSeriesPoints {
		return fmt.Errorf("exper: %w: interval %d over %d instrs collects %d points per series, above the %d-point bound",
			core.ErrInvalidParams, iv, j.Instrs, j.Instrs/iv, maxSeriesPoints)
	}
	return nil
}

// Check refuses a scale outside (0, 64]; 0 means 1, as
// workloads.BuildOptions says.
func (o Options) Check() error {
	if !(o.Scale >= 0 && o.Scale <= maxScale) {
		return fmt.Errorf("exper: %w: scale %g out of range (0, %d]", workloads.ErrInvalidSpec, o.Scale, maxScale)
	}
	return nil
}

// Runner executes simulation cells on behalf of the experiments.
type Runner interface {
	RunCell(Job) (core.Result, error)
}

// WithDefaults fills in the zero fields: 20 M instructions, scale 1.0,
// seed 42.
func (o Options) WithDefaults() Options {
	if o.Instrs == 0 {
		o.Instrs = 20_000_000
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string // e.g. "fig10"
	Title string
	Run   func(opt Options) ([]*stats.Table, error)
}

// All returns every experiment, in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table 1 — per-core TLB hierarchy details", Run: table1},
		{ID: "table2", Title: "Table 2 — Cacti energies and analytical-model validation", Run: table2},
		{ID: "table3", Title: "Table 3 — energy and performance model golden values", Run: table3},
		{ID: "table4", Title: "Table 4 — workload descriptions and footprints", Run: table4},
		{ID: "fig2", Title: "Figure 2 — energy and TLB-miss-cycle characterization (4KB/THP/RMM)", Run: fig2},
		{ID: "fig3", Title: "Figure 3 — dynamic energy vs page-walk L1-cache hit ratio", Run: fig3},
		{ID: "fig4", Title: "Figure 4 — L1 MPKI over time with smaller fixed L1-4KB TLBs", Run: fig4},
		{ID: "fig10", Title: "Figure 10 — dynamic energy and TLB-miss cycles, all configurations", Run: fig10},
		{ID: "fig11", Title: "Figure 11 — L1 and L2 TLB MPKI, all configurations", Run: fig11},
		{ID: "fig12", Title: "Figure 12 — energy reduction for the remaining Spec2006/Parsec workloads", Run: fig12},
		{ID: "table5", Title: "Table 5 — active-way lookup shares and L1 hit attribution", Run: table5},
		{ID: "sens-interval", Title: "§6.2 — interval size and random-probability sensitivity", Run: sensInterval},
		{ID: "sens-threshold", Title: "§6.2 — threshold ε sensitivity (the paper's future work)", Run: sensThreshold},
		{ID: "sens-l1range", Title: "Ablation — L1-range TLB size sweep", Run: sensL1Range},
		{ID: "abl-lite", Title: "Ablation — Lite mechanism components and the §4.4 fully-associative variant", Run: ablLite},
		{ID: "series", Title: "Interval drill-down — per-interval MPKI, energy/access, and Lite active ways", Run: seriesExp},
		{ID: "static", Title: "§6.2 — static (leakage) energy saved by power-gating disabled ways", Run: static},
		{ID: "ext-predictor", Title: "Extension — realizable TLB_Pred and the §6.1 Combined design", Run: extPredictor},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids in order.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

// ExecuteJobContext checks one cell (Job.Check), then builds and
// simulates it on the address space its spec builds, honouring context
// cancellation between simulation strides. The cell reads the shared
// stream of the Seat in ctx when it can join it, else its own
// generator; a refused or unbuildable cell releases its seat. Like
// RunDemand, a failed run returns its error with the partial Result.
func ExecuteJobContext(ctx context.Context, j Job) (core.Result, error) {
	seat := seatOf(ctx)
	if err := j.Check(); err != nil {
		seat.Release()
		return core.Result{}, err
	}
	as, regions, err := j.Spec.Map(workloads.BuildOptions{Policy: j.Policy, Seed: j.Seed, Scale: j.Scale})
	if err != nil {
		seat.Release()
		return core.Result{}, fmt.Errorf("exper: building %s: %w", j.Spec.Name, err)
	}
	var src trace.RefSource
	if r := seat.join(ctx, j, regions); r != nil {
		defer r.leave()
		src = r
	} else {
		src = j.Spec.Generator(regions, j.Seed, 0)
	}
	return simulate(ctx, j, as, src)
}

// RunDemand checks j (Job.Check) and simulates it over src on a
// demand-paged address space of physBytes (0 = 64 GiB): pages
// materialize on first touch, so a recorded or ingested stream needs no
// model behind its addresses. The caller checks the stream's pacing
// (trace.CheckReplayable).
func RunDemand(ctx context.Context, j Job, src trace.RefSource, physBytes uint64) (core.Result, error) {
	if physBytes == 0 {
		physBytes = 64 << 30
	}
	j.Params.DemandPaging = true
	if err := j.Check(); err != nil {
		return core.Result{}, err
	}
	return simulate(ctx, j, vm.New(vm.Config{Policy: j.Policy, Seed: j.Seed, PhysBytes: physBytes}), src)
}

// simulate is the one place a cell meets core.NewSimulator.
func simulate(ctx context.Context, j Job, as *vm.AddressSpace, src trace.RefSource) (core.Result, error) {
	sim, err := core.NewSimulator(j.Params, as)
	if err != nil {
		return core.Result{}, fmt.Errorf("exper: %s/%v: %w", j.Spec.Name, j.Params.Kind, err)
	}
	res, err := sim.RunContext(ctx, src, j.Instrs)
	if err != nil {
		return res, fmt.Errorf("exper: %s/%v: %w", j.Spec.Name, j.Params.Kind, err)
	}
	return res, nil
}

// runJob routes a cell through the Options runner when one is set,
// threading the audit/injection options into the cell's parameters
// first so every simulation an experiment spawns is covered.
func runJob(j Job, opt Options) (core.Result, error) {
	if opt.Audit.Enabled {
		j.Params.Audit = opt.Audit
	}
	if opt.Inject.Kind != inject.None {
		j.Params.Fault = opt.Inject
	}
	if opt.Metrics != nil {
		j.Params.Metrics = opt.Metrics
	}
	if opt.Trace != nil {
		j.Params.Trace = opt.Trace
	}
	if opt.Runner != nil {
		return opt.Runner.RunCell(j)
	}
	return ExecuteJobContext(context.Background(), j)
}

// runOne builds the workload under the policy matching the configuration
// and simulates it with the given parameters.
func runOne(spec workloads.Spec, p core.Params, opt Options) (core.Result, error) {
	return runJob(NewJob(spec, p, opt), opt)
}

// runConfig is runOne with default parameters for the kind.
func runConfig(spec workloads.Spec, kind core.ConfigKind, opt Options) (core.Result, error) {
	return runOne(spec, core.DefaultParams(kind), opt)
}

// pct formats a ratio as a percentage string.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// norm formats a value normalized to a baseline.
func norm(v, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", v/base)
}

// sortedKeys returns the sorted keys of a string-keyed map.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
