// Command perfbench is the repository's benchmark. It runs one
// named workload for a fixed time, checks the simulated results, and
// prints every end-to-end metric (or, with --trace 1, every per-layer
// metric) as the last line of its output, one JSON object.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload replay-hit --seed 1 --seconds 26 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is
// the median.
const setupReps = 7

// refsPath holds the committed reference counters for defaultSeed.
const refsPath = "perfbench/refs.json"

// buildDir is the checkout's directory for build outputs and run
// files (run.sh builds into it; .gitignore lists it).
const buildDir = ".bench_build"

type runFunc func(context.Context, phases, time.Duration) error

var runners = map[string]runFunc{
	"fig2":        runFig2,
	"replay-hit":  runReplay(hitConfigs),
	"replay-walk": runReplay(walkConfigs),
	"serve":       runServe,
}

// checks are run once per run, after measuring, on the untraced
// phase's session.
var checks = map[string]func(context.Context, *session) error{
	"fig2":  checkGolden,
	"serve": checkServeDirect,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: fig2, replay-hit, replay-walk or serve")
	seed := fs.Int64("seed", defaultSeed, "seed all inputs are generated from")
	seconds := fs.Int("seconds", 10, "measuring time of the run")
	traced := fs.Int("trace", 0, "1 = also run a traced phase and print per-layer metrics")
	writeRefs := fs.Bool("write-refs", false, "record the reference counters of every workload at the default seed into "+refsPath)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	if *writeRefs {
		if err := writeReferences(ctx); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	runner, ok := runners[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (fig2, replay-hit, replay-walk, serve), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	res, err := measure(ctx, stdout, *workload, runner, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure runs the workload and returns the run's result line. A
// traced run alternates untraced and traced units over the budget,
// reports the difference as the tracing overhead, and checks that both
// phases simulated identical statistics.
func measure(ctx context.Context, w io.Writer, name string, runner runFunc, seed int64, budget time.Duration, traced bool) (result, error) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", name, seed, budget.Seconds(), traced)
	results := make(map[string]counters)
	plain := newSession(seed, nil, results)
	ps := phases{plain}
	if traced {
		ps = append(ps, newSession(seed, newTracer(), results))
	}
	if err := runner(ctx, ps, budget); err != nil {
		return result{}, err
	}
	if check := checks[name]; check != nil {
		if err := check(ctx, plain); err != nil {
			return result{}, err
		}
	}
	if seed == defaultSeed {
		if err := checkReferences(plain, name); err != nil {
			return result{}, err
		}
	}
	e2e := endToEndValues(plain)
	out := result{Metrics: make(map[string]metricValue)}
	if !traced {
		fmt.Fprintln(w, "end-to-end metrics:")
		for _, m := range endToEnd {
			fmt.Fprintf(w, "  %-12s %-7s %s\n", m.name, m.unit, summaryOf(plain, m))
			out.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
		return finish(w, out, plain), nil
	}

	ts, tr := ps.traced(), ps.traced().tr
	fmt.Fprintln(w, "tracing overhead (traced median minus untraced median):")
	tracedE2E := endToEndValues(ts)
	for _, m := range endToEnd {
		if m.name == "max_rss_mb" {
			continue // one process, one peak: not separable by phase
		}
		u, t := e2e[m.name], tracedE2E[m.name]
		fmt.Fprintf(w, "  %-12s untraced %.6g traced %.6g diff %+.6g (%+.1f%%)\n", m.name, u, t, t-u, 100*(t-u)/u)
	}
	fmt.Fprintln(w, "traced spans:")
	tr.printSelfTimes(w)
	path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "spans written to %s\n", path)
	for k, v := range plain.aggregate() {
		ts.layer[k] = v
	}
	fmt.Fprintln(w, "per-layer metrics (0 = layer not on this workload's path):")
	for _, m := range perLayer {
		v := ts.layer[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "  %-26s %-8s %.6g\n", m.name, m.unit, v)
		out.Metrics[m.name] = metricValue{v, m.unit}
	}
	fmt.Fprintln(w, "  (core.page_faults is not reported: it is Result.PageFaults, the counter vm.page_faults reports)")
	for _, n := range ts.notes {
		fmt.Fprintln(w, "separation:", n)
	}
	plain.attempted += ts.attempted
	plain.failed += ts.failed
	plain.problems = append(plain.problems, ts.problems...)
	return finish(w, out, plain), nil
}

func finish(w io.Writer, out result, s *session) result {
	out.Attempted, out.Failed = s.attempted, s.failed
	out.Correct = s.failed == 0 && s.attempted > 0
	for _, p := range s.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", s.attempted, s.failed)
	return out
}

// endToEndValues reduces a phase's samples to each end-to-end metric's
// reported value: the median of its per-unit samples, except the two
// latency percentiles, which pool every cell of the phase.
func endToEndValues(s *session) map[string]float64 {
	v := map[string]float64{"max_rss_mb": maxRSSMB()}
	cells := s.cellLatencies()
	for _, m := range endToEnd {
		switch m.name {
		case "cell_p50_ms":
			v[m.name] = quantile(cells, 50)
		case "cell_p95_ms":
			v[m.name] = quantile(cells, 95)
		case "max_rss_mb":
		default:
			v[m.name] = median(s.samples[m.name])
		}
	}
	return v
}

// summaryOf prints a metric's sample count, median and tail.
func summaryOf(s *session, m metric) string {
	switch m.name {
	case "cell_p50_ms", "cell_p95_ms":
		xs := s.cellLatencies()
		p := 50.0
		if m.name == "cell_p95_ms" {
			p = 95
		}
		beyond := int(math.Floor(float64(len(xs)) * (100 - p) / 100))
		norm := ""
		if len(s.byType) > 0 {
			norm = fmt.Sprintf(", normalized over %d cell types", len(s.byType))
		}
		return fmt.Sprintf("n=%d p%g=%.6g (%d samples beyond%s; per-cell %s)", len(xs), p, quantile(xs, p), beyond, norm, summarize(xs, false))
	case "max_rss_mb":
		return fmt.Sprintf("n=1 value=%.6g (peak of the process)", maxRSSMB())
	}
	return summarize(s.samples[m.name], m.higherBetter()).String()
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// references maps workload → cell label → counters.
type references map[string]map[string]counters

// checkReferences compares every cell the run simulated with the
// committed reference counters; a missing, extra or different cell is
// a failed check.
func checkReferences(s *session, workload string) error {
	data, err := os.ReadFile(refsPath)
	if err != nil {
		return fmt.Errorf("reference counters: %w", err)
	}
	var refs references
	if err := json.Unmarshal(data, &refs); err != nil {
		return fmt.Errorf("reference counters: %w", err)
	}
	want := refs[workload]
	s.mu.Lock()
	defer s.mu.Unlock()
	labels := make(map[string]bool)
	for l := range want {
		labels[l] = true
	}
	for l := range s.results {
		labels[l] = true
	}
	var bad []string
	for l := range labels {
		got, ok := s.results[l]
		if exp, ok2 := want[l]; !ok || !ok2 || got != exp {
			bad = append(bad, l)
		}
	}
	sort.Strings(bad)
	for _, l := range bad {
		s.failed++
		s.problems = append(s.problems, fmt.Sprintf("cell %s: simulated statistics differ from %s", l, refsPath))
	}
	return nil
}

// writeReferences records the counters of one unit of every workload
// at the default seed.
func writeReferences(ctx context.Context) error {
	refs := make(references)
	for name, runner := range runners {
		s := newSession(defaultSeed, nil, make(map[string]counters))
		if err := runner(ctx, phases{s}, 0); err != nil {
			return err
		}
		if s.failed > 0 {
			return fmt.Errorf("%s: %v", name, s.problems)
		}
		refs[name] = s.results
	}
	data, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(refsPath, append(data, '\n'), 0o644)
}
