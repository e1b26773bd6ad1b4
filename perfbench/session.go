package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"xlate/internal/core"
	"xlate/internal/energy"
)

// counters are the simulated statistics of one cell that the
// benchmark checks. Simulation is deterministic, so they must repeat
// exactly across runs, phases, workers and the service.
type counters struct {
	Instructions      uint64
	MemRefs           uint64
	L1Misses          uint64
	L2Misses          uint64
	WalkRefs          uint64
	PageFaults        uint64
	CyclesTLBMiss     uint64
	Hits4K            uint64
	Hits2M            uint64
	Hits1G            uint64
	HitsRange         uint64
	LiteResizes       uint64
	LiteReactivations uint64
	EnergyPJ          [energy.NumAccounts]float64
}

func digest(r core.Result) counters {
	return counters{
		Instructions: r.Instructions, MemRefs: r.MemRefs,
		L1Misses: r.L1Misses, L2Misses: r.L2Misses, WalkRefs: r.WalkRefs,
		PageFaults: r.PageFaults, CyclesTLBMiss: r.CyclesTLBMiss,
		Hits4K: r.Hits4K, Hits2M: r.Hits2M, Hits1G: r.Hits1G, HitsRange: r.HitsRange,
		LiteResizes: r.LiteResizes, LiteReactivations: r.LiteReactivations,
		EnergyPJ: r.Energy,
	}
}

// session is the state of one measuring phase of a run: end-to-end
// samples, operation counts, failures, and the per-layer values a
// traced phase derives. The simulated results seen per cell are shared
// by every phase of a run, so a traced phase is checked against the
// untraced one.
type session struct {
	seed int64
	tr   *tracer // nil in an untraced phase

	mu        sync.Mutex
	samples   map[string][]float64
	byType    map[string][]float64 // cell latencies (ms) by cell type, for fixed cell sets
	results   map[string]counters  // cell label → first result seen
	attempted int
	failed    int
	problems  []string
	layer     map[string]float64
	notes     []string // layer-separation findings of a traced phase
}

func newSession(seed int64, tr *tracer, results map[string]counters) *session {
	return &session{
		seed: seed, tr: tr,
		samples: make(map[string][]float64),
		byType:  make(map[string][]float64),
		results: results,
		layer:   make(map[string]float64),
	}
}

func (s *session) sample(name string, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples[name] = append(s.samples[name], v)
}

// typedCell records the latency of one cell of a workload that runs a
// small fixed set of cell types.
func (s *session) typedCell(label string, ms float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byType[label] = append(s.byType[label], ms)
}

// cellLatencies returns the cell latency samples the cell_p50_ms and
// cell_p95_ms metrics are taken over. A workload of a few fixed cell
// types has a lumpy pooled distribution whose percentiles jump between
// the types, so there each sample is divided by its type's median and
// scaled by the geometric mean of the type medians.
func (s *session) cellLatencies() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.byType) == 0 {
		return s.samples["cell_ms"]
	}
	var logSum float64
	for _, xs := range s.byType {
		logSum += math.Log(median(xs))
	}
	g := math.Exp(logSum / float64(len(s.byType)))
	var out []float64
	for _, xs := range s.byType {
		m := median(xs)
		for _, x := range xs {
			out = append(out, g*x/m)
		}
	}
	return out
}

// op counts one attempted operation and, when err is set, its failure.
func (s *session) op(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if err != nil {
		s.failed++
		s.problems = append(s.problems, err.Error())
	}
}

// fail records a failed correctness check.
func (s *session) fail(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failed++
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// cell counts one executed cell and checks its simulated statistics
// against the first result seen for the same cell.
func (s *session) cell(label string, r core.Result, err error) {
	if err != nil {
		s.op(fmt.Errorf("cell %s: %w", label, err))
		return
	}
	s.op(nil)
	c := digest(r)
	s.mu.Lock()
	prev, seen := s.results[label]
	if !seen {
		s.results[label] = c
	}
	s.mu.Unlock()
	if seen && prev != c {
		s.fail("cell %s: simulated statistics differ from an earlier run of the same cell", label)
	}
}

// aggregate returns the workload-level simulated counts over every
// distinct cell seen.
func (s *session) aggregate() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t counters
	var l1Hits uint64
	var pj float64
	for _, c := range s.results {
		t.Instructions += c.Instructions
		t.MemRefs += c.MemRefs
		t.L1Misses += c.L1Misses
		t.L2Misses += c.L2Misses
		t.WalkRefs += c.WalkRefs
		t.PageFaults += c.PageFaults
		t.LiteResizes += c.LiteResizes
		l1Hits += c.Hits4K + c.Hits2M + c.Hits1G + c.HitsRange
		for _, v := range c.EnergyPJ {
			pj += v
		}
	}
	refs, instrs := float64(t.MemRefs), float64(t.Instructions)
	if refs == 0 {
		return nil
	}
	return map[string]float64{
		"core.l1_hit_ratio":      float64(l1Hits) / refs,
		"core.l1_mpki":           float64(t.L1Misses) * 1000 / instrs,
		"core.l2_mpki":           float64(t.L2Misses) * 1000 / instrs,
		"core.walk_refs_per_ref": float64(t.WalkRefs) / refs,
		"lite.resizes_per_mref":  float64(t.LiteResizes) / (refs / 1e6),
		"energy.pj_per_ref":      pj / refs,
		"vm.page_faults":         float64(t.PageFaults),
	}
}

// note records a layer-separation finding of a traced phase.
func (s *session) note(format string, args ...any) {
	s.notes = append(s.notes, fmt.Sprintf(format, args...))
}

// phases are the sessions a run measures: the untraced one and, in a
// traced run, the traced one after it. Set-ups and units alternate
// between them, so drift in the host's speed hits both alike and the
// traced minus untraced difference is the tracing overhead.
type phases []*session

// traced returns the traced session, or nil.
func (ps phases) traced() *session {
	if s := ps[len(ps)-1]; s.tr != nil {
		return s
	}
	return nil
}

// setups runs setupReps timed set-ups for every phase; setup_s is
// their median. A collection before each one, and after the last, lets
// every repetition and the measuring that follows start from the same
// heap, so the process's peak RSS does not depend on where the
// collector happened to run among the set-ups' garbage.
func (ps phases) setups(f func(s *session, parent int) error) error {
	defer runtime.GC()
	for rep := 0; rep < setupReps*len(ps); rep++ {
		runtime.GC()
		s := ps[rep%len(ps)]
		root := s.tr.start("setup", 0)
		t0 := time.Now()
		err := f(s, root)
		s.sample("setup_s", time.Since(t0).Seconds())
		s.tr.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}

// repeat runs unit n = 0, 1, ... on the phases in turn until budget
// has passed, and at least once on every phase.
func (ps phases) repeat(budget time.Duration, unit func(n int, s *session) error) error {
	deadline := time.Now().Add(budget)
	for n := 0; n < len(ps) || time.Now().Before(deadline); n++ {
		if err := unit(n, ps[n%len(ps)]); err != nil {
			return err
		}
	}
	return nil
}
