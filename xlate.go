// Package xlate is a library for studying energy-efficient address
// translation. It reproduces the system of Karakostas et al.,
// "Energy-Efficient Address Translation" (HPCA 2016): a per-core MMU
// simulator with multi-level page and range TLBs, the Lite way-disabling
// mechanism, the Redundant Memory Mappings substrate (range
// translations, range table, eager paging), an x86-64 page table and
// paging-structure caches, Cacti-calibrated dynamic-energy accounting,
// and a harness that regenerates every table and figure of the paper's
// evaluation on calibrated synthetic workload models.
//
// Quick start:
//
//	w, _ := xlate.WorkloadByName("mcf")
//	res, err := xlate.Run(w, xlate.CfgRMMLite, 20_000_000)
//	fmt.Println(res.EnergyPerRefPJ(), res.L1MPKI())
//
// The six simulated configurations are those of the paper's §5:
// Cfg4KB, CfgTHP, CfgTLBLite, CfgRMM, CfgTLBPP and CfgRMMLite.
package xlate

import (
	"context"
	"fmt"
	"io"

	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/stats"
	"xlate/internal/trace"
	"xlate/internal/vm"
	"xlate/internal/workloads"
)

// Validation errors at the API boundary. Malformed user input —
// parameters or workload models — surfaces as an error wrapping one of
// these sentinels, classifiable with errors.Is; panics are reserved for
// internal invariant violations.
var (
	// ErrInvalidParams is wrapped by every Params validation failure
	// (bad TLB geometry, range-TLB capacities, latencies, thresholds).
	ErrInvalidParams = core.ErrInvalidParams
	// ErrInvalidWorkload is wrapped by every workload-model validation
	// failure (empty regions, bad Zipf exponents, zero strides).
	ErrInvalidWorkload = workloads.ErrInvalidSpec
)

// Config selects one of the paper's simulated TLB organizations.
type Config = core.ConfigKind

// The simulated configurations (paper §5).
const (
	Cfg4KB     = core.Cfg4KB     // 4 KB pages only
	CfgTHP     = core.CfgTHP     // transparent huge pages
	CfgTLBLite = core.CfgTLBLite // THP + the Lite way-disabling mechanism
	CfgRMM     = core.CfgRMM     // THP + L2-range TLB + eager paging
	CfgTLBPP   = core.CfgTLBPP   // perfect TLB_Pred upper bound
	CfgRMMLite = core.CfgRMMLite // RMM + L1-range TLB + Lite
)

// Extension configurations beyond the paper's evaluation (DESIGN.md):
// a realizable TLB_Pred with a fallible page-size predictor, and the
// combined design the paper suggests in §6.1 (range TLBs + prediction-
// based mixed page TLB + Lite).
const (
	CfgTLBPred  = core.CfgTLBPred
	CfgCombined = core.CfgCombined
)

// AllConfigs lists the configurations in the paper's presentation order.
func AllConfigs() []Config { return core.AllConfigs() }

// ExtendedConfigs lists the extension configurations.
func ExtendedConfigs() []Config { return core.ExtendedConfigs() }

// Params fully parameterizes a simulation; DefaultParams fills in the
// paper's values (Sandy Bridge geometry, Table 2 energies, the §5 Lite
// thresholds).
type Params = core.Params

// DefaultParams returns the paper's parameters for a configuration.
func DefaultParams(cfg Config) Params { return core.DefaultParams(cfg) }

// Result is the outcome of a simulation: performance counters, derived
// MPKI metrics, the dynamic-energy breakdown, Lite occupancy shares and
// optional interval series.
type Result = core.Result

// Workload is a calibrated synthetic model of one of the paper's
// benchmarks (see internal/workloads for the modeling methodology).
// Custom workloads can be composed from regions, phases and access
// patterns; see examples/adaptive.
type Workload = workloads.Spec

// WorkloadRegion is one data structure of a workload model.
type WorkloadRegion = workloads.RegionSpec

// WorkloadPhase is one execution phase of a workload model.
type WorkloadPhase = workloads.PhaseSpec

// WorkloadAccess is one weighted access stream into a region.
type WorkloadAccess = workloads.AccessSpec

// Access patterns for custom workload models.
const (
	PatternSeq     = workloads.Seq // sequential sweep (requires Stride)
	PatternUniform = workloads.Uni // uniform random
	PatternZipf    = workloads.Zpf // Zipf-skewed reuse (requires ZipfS > 1)
	PatternChase   = workloads.Chs // pointer chase (full-cycle permutation)
)

// Workloads returns the paper's eight TLB-intensive workload models
// (Table 4).
func Workloads() []Workload { return workloads.TLBIntensive() }

// AllWorkloads returns every workload model, including the Figure 12
// non-intensive Spec2006/Parsec sets.
func AllWorkloads() []Workload { return workloads.All() }

// WorkloadByName finds a workload model by benchmark name (e.g. "mcf").
func WorkloadByName(name string) (Workload, error) {
	s, ok := workloads.ByName(name)
	if !ok {
		return Workload{}, fmt.Errorf("xlate: %w: unknown workload %q", ErrInvalidWorkload, name)
	}
	return s, nil
}

// RunOptions tunes a Run beyond the architectural parameters.
type RunOptions struct {
	// Seed drives all randomness deterministically (default 42).
	Seed int64
	// Scale multiplies workload footprints (default 1.0).
	Scale float64
}

// Run simulates a workload under a configuration with the paper's
// default parameters for the given instruction budget.
func Run(w Workload, cfg Config, instrs uint64) (Result, error) {
	return RunParams(w, DefaultParams(cfg), instrs, RunOptions{})
}

// RunParams simulates a workload with explicit parameters.
func RunParams(w Workload, p Params, instrs uint64, opt RunOptions) (Result, error) {
	return RunParamsContext(context.Background(), w, p, instrs, opt)
}

// RunParamsContext is RunParams with cooperative cancellation: the
// simulator polls ctx between strides of references and returns
// ctx.Err() with the partial result discarded.
func RunParamsContext(ctx context.Context, w Workload, p Params, instrs uint64, opt RunOptions) (Result, error) {
	if opt.Seed == 0 {
		opt.Seed = 42
	}
	as, gen, err := w.Build(workloads.BuildOptions{
		Policy: core.PolicyFor(p.Kind, 0.5),
		Seed:   opt.Seed,
		Scale:  opt.Scale,
	})
	if err != nil {
		return Result{}, err
	}
	sim, err := core.NewSimulator(p, as)
	if err != nil {
		return Result{}, err
	}
	res, err := sim.RunContext(ctx, gen, instrs)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// RunMulticore simulates a multi-threaded process: one address space,
// one private TLB hierarchy per core, one reference thread per core
// (decorrelated seeds). It returns the per-core results and their
// aggregate. Deterministic regardless of goroutine scheduling.
func RunMulticore(w Workload, cfg Config, cores int, instrsPerCore uint64, opt RunOptions) ([]Result, Result, error) {
	if opt.Seed == 0 {
		opt.Seed = 42
	}
	p := DefaultParams(cfg)
	as, gens, err := w.BuildThreads(workloads.BuildOptions{
		Policy: core.PolicyFor(cfg, 0.5),
		Seed:   opt.Seed,
		Scale:  opt.Scale,
	}, cores)
	if err != nil {
		return nil, Result{}, err
	}
	m, err := core.NewMulticore(p, as, cores)
	if err != nil {
		return nil, Result{}, err
	}
	srcs := make([]trace.RefSource, len(gens))
	for i, g := range gens {
		srcs[i] = g
	}
	return m.Run(srcs, instrsPerCore)
}

// Experiment is one reproducible paper artifact (a table or figure).
type Experiment = exper.Experiment

// ExperimentOptions parameterizes the experiment harness.
type ExperimentOptions = exper.Options

// Table is a rendered result table (markdown or CSV).
type Table = stats.Table

// Experiments lists every paper artifact the harness can regenerate, in
// paper order.
func Experiments() []Experiment { return exper.All() }

// RunExperiment regenerates one artifact by id (e.g. "fig10"); see
// Experiments for the catalogue.
func RunExperiment(id string, opt ExperimentOptions) ([]*Table, error) {
	e, ok := exper.ByID(id)
	if !ok {
		return nil, fmt.Errorf("xlate: %w: unknown experiment %q (known: %v)", ErrInvalidParams, id, exper.IDs())
	}
	return e.Run(opt)
}

// Ref is one memory reference of a trace: a virtual address and the
// instructions executed since the previous reference.
type Ref = trace.Ref

// WriteTrace encodes references in the binary trace format (see
// internal/trace: delta-varint records behind an "XLTRACE1" header).
func WriteTrace(w io.Writer, refs []Ref) error { return trace.WriteAll(w, refs) }

// ReadTrace decodes a complete binary trace.
func ReadTrace(r io.Reader) ([]Ref, error) { return trace.ReadAll(r) }

// RecordTrace runs a workload's generator for n references and returns
// them, e.g. to serialize with WriteTrace for later replay.
func RecordTrace(w Workload, cfg Config, n int, opt RunOptions) ([]Ref, error) {
	if opt.Seed == 0 {
		opt.Seed = 42
	}
	_, gen, err := w.Build(workloads.BuildOptions{
		Policy: core.PolicyFor(cfg, 0.5), Seed: opt.Seed, Scale: opt.Scale})
	if err != nil {
		return nil, err
	}
	refs := make([]Ref, n)
	for i := range refs {
		refs[i] = gen.Next()
	}
	return refs, nil
}

// ReplayTrace drives a configuration with recorded references (looping
// the trace as needed to fill the instruction budget). The address
// space is demand-paged under the configuration's OS policy, so traces
// recorded anywhere — including from real programs — can be replayed.
// A trace that touches more 2 MB chunks than the 64 GiB of simulated
// physical memory can back fails with an error wrapping the allocator's
// out-of-memory error, returned with the partial Result.
func ReplayTrace(refs []Ref, p Params, instrs uint64, opt RunOptions) (Result, error) {
	return replayTrace(refs, p, instrs, opt, 64<<30)
}

// replayTrace is ReplayTrace over physBytes of simulated physical memory.
func replayTrace(refs []Ref, p Params, instrs uint64, opt RunOptions, physBytes uint64) (Result, error) {
	if len(refs) == 0 {
		return Result{}, fmt.Errorf("xlate: %w: empty trace", ErrInvalidParams)
	}
	if opt.Seed == 0 {
		opt.Seed = 42
	}
	p.DemandPaging = true
	as := vm.New(vm.Config{Policy: core.PolicyFor(p.Kind, 0.5), Seed: opt.Seed, PhysBytes: physBytes})
	sim, err := core.NewSimulator(p, as)
	if err != nil {
		return Result{}, err
	}
	return sim.RunContext(context.Background(), trace.NewReplay(refs), instrs)
}
