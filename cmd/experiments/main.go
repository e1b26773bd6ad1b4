// Command experiments regenerates the paper's tables and figures.
//
// Experiments decompose into simulation cells (workload × configuration
// × parameters) that run on a worker pool; identical cells shared by
// several experiments are simulated once, each completed cell is
// appended to the -checkpoint journal and fsync'd as it finishes, and
// output is byte-identical to a sequential run regardless of
// -parallel. Ctrl-C cancels in-flight cells; every completed cell is
// already on disk, and rerunning with -resume continues where the
// interrupted run stopped (a torn final line is healed; a journal
// damaged above a valid record, or written with other options, is
// refused). A cell that panics or times out fails only the
// experiments that need it — the rest of the suite still renders.
//
// Usage:
//
//	experiments -list
//	experiments -exp fig10                # one artifact, full scale
//	experiments -exp all -instrs 20000000 # everything (takes minutes)
//	experiments -exp fig2 -format csv
//	experiments -parallel 8 -timeout 10m  # 8 workers, 10 min per cell
//	experiments -resume                   # continue an interrupted run
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"

	"xlate"
	"xlate/internal/audit"
	"xlate/internal/audit/inject"
	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/harness"
	"xlate/internal/obsflags"
	"xlate/internal/tracec"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		exp     = flag.String("exp", "all", `experiment id (see -list) or "all"`)
		instrs  = flag.Uint64("instrs", 20_000_000, "instruction budget per simulation")
		scale   = flag.Float64("scale", 1.0, "workload footprint scale")
		seed    = flag.Int64("seed", 42, "random seed")
		format  = flag.String("format", "markdown", "output format: markdown or csv")
		list    = flag.Bool("list", false, "list experiments, then exit")
		workers = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for simulation cells")
		timeout = flag.Duration("timeout", 0, "per-cell deadline, e.g. 10m (0 = none)")
		retries = flag.Int("retries", 0, "retries per failed cell, each with a derived seed")
		ckpt    = flag.String("checkpoint", "experiments.ckpt", "cell journal path (empty disables checkpointing)")
		resume  = flag.Bool("resume", false, "load completed cells from -checkpoint before running")
		verbose = flag.Bool("v", false, "log harness progress to stderr")

		auditOn     = flag.Bool("audit", false, "attach the runtime integrity layer to every cell; violations fail the cell")
		auditSample = flag.Uint64("audit-sample", audit.DefaultSampleEvery, "oracle sampling cadence: cross-check every Nth access (1 = every access)")
		injectSpec  = flag.String("inject", "", `fault to inject into every cell: "kind" or "kind@refs" (flip-pfn, drop-inval, stale-range, skew-charge)`)

		progress = flag.Duration("progress", 0, "emit a progress line (cells done, ETA, aggregate MPKI) to stderr at this period, e.g. 10s (0 = off)")

		compileTraces = flag.Bool("compile-traces", false, "compile each workload into a replayable trace segment once and replay it for every cell that shares it (requires -trace-store)")
		traceStore    = flag.String("trace-store", "", "segment store directory for -compile-traces")
	)
	obs := obsflags.Register()
	flag.Parse()

	fault, err := inject.Parse(*injectSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 2
	}

	if *list {
		for _, e := range xlate.Experiments() {
			fmt.Printf("  %-14s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if *format != "markdown" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "experiments: unknown format %q\n", *format)
		return 2
	}

	var exps []exper.Experiment
	if *exp == "all" {
		exps = exper.All()
	} else {
		e, ok := exper.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (known: %v)\n", *exp, exper.IDs())
			return 2
		}
		exps = []exper.Experiment{e}
	}

	// Ctrl-C / SIGTERM cancels in-flight cells; completed cells are
	// already journaled, so a -resume run picks up from there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logf := func(string, ...any) {}
	if *verbose || *progress > 0 {
		logf = func(f string, args ...any) { fmt.Fprintf(os.Stderr, "experiments: "+f+"\n", args...) }
	}

	// The status endpoint needs the suite before the suite exists (the
	// suite needs the session's registry), so the closure resolves the
	// suite through an atomic pointer set just below.
	var suiteRef atomic.Pointer[harness.Suite]
	status := func() any {
		if s := suiteRef.Load(); s != nil {
			return s.Status()
		}
		return nil
	}
	sess, err := obs.Start(status, logf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 2
	}
	defer func() {
		if err := sess.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		}
	}()

	var traces *tracec.Executor
	if *compileTraces || *traceStore != "" {
		if *traceStore == "" {
			fmt.Fprintln(os.Stderr, "experiments: -compile-traces needs -trace-store")
			return 2
		}
		store, err := tracec.OpenStore(*traceStore, 0, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 2
		}
		traces = &tracec.Executor{Store: store, CompileModels: *compileTraces, Logf: logf}
	}

	s := harness.New(harness.Config{
		Workers:     *workers,
		CellTimeout: *timeout,
		Retries:     *retries,
		Checkpoint:  *ckpt,
		Resume:      *resume,
		Options: exper.Options{
			Instrs: *instrs, Scale: *scale, Seed: *seed,
			Audit:   audit.Config{Enabled: *auditOn, SampleEvery: *auditSample},
			Inject:  fault,
			Metrics: core.NewMetrics(sess.Registry),
			Trace:   sess.Tracer,
		},
		Traces:        traces,
		Logf:          logf,
		Registry:      sess.Registry,
		ProgressEvery: *progress,
	})
	suiteRef.Store(s)

	results, err := s.Run(ctx, exps)
	failures := 0
	for _, r := range results {
		if r.Err != nil && ctx.Err() != nil {
			break // interrupted: unrendered experiments aren't failures
		}
		fmt.Printf("## %s  (%.1fs)\n\n", r.ID, r.Elapsed.Seconds())
		if r.Err != nil {
			failures++
			fmt.Printf("_not reproduced: %s_\n\n", firstLine(r.Err.Error()))
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", r.ID, r.Err)
			continue
		}
		for _, t := range r.Tables {
			if *format == "csv" {
				if t.Title != "" {
					fmt.Printf("# %s\n", t.Title)
				}
				fmt.Print(t.CSV())
			} else {
				fmt.Println(t.Markdown())
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		if ctx.Err() != nil && *ckpt != "" {
			fmt.Fprintf(os.Stderr, "experiments: completed cells saved; rerun with -resume to continue\n")
		}
		return 1
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d experiment(s) failed\n", failures)
		return 1
	}
	return 0
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
