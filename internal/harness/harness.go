// Package harness is the resilient execution substrate for the
// experiment suite. It decomposes each experiment into its simulation
// cells (exper.Job values) and executes the deduplicated cell set on a
// worker pool with context cancellation, per-cell deadlines, panic
// recovery, bounded retries, and a JSONL checkpoint journal, then
// re-renders every experiment serially from the memoized results so the
// output is byte-identical to a sequential run regardless of
// parallelism.
//
// The three passes:
//
//  1. Plan: each experiment runs against a recording Runner that logs
//     every requested cell and answers with a fixed stub result. This
//     discovers the cell set without simulating anything.
//  2. Execute: the deduplicated cells (minus any satisfied by a resumed
//     checkpoint) run on the worker pool. A panicking cell is recovered
//     into a structured RunError carrying the cell identity, seed,
//     recovered value, and stack; it fails that cell, never the suite.
//  3. Render: each experiment re-runs serially against a serving Runner
//     that answers from the memoized results. A cell the plan missed
//     (an experiment whose requests depend on simulated values) is
//     executed inline — correctness never depends on the plan being
//     complete, only speed does.
//
// Retried cells use seeds derived deterministically from the cell key
// and attempt number, so results do not depend on scheduling.
package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/stats"
	"xlate/internal/telemetry"
	"xlate/internal/tracec"
)

// Config parameterizes a Suite.
type Config struct {
	// Workers is the number of parallel cell executors (default
	// GOMAXPROCS).
	Workers int
	// CellTimeout bounds each cell attempt (0 = no deadline).
	CellTimeout time.Duration
	// Retries is how many times a failed cell is re-attempted with
	// deterministically derived seeds before it is reported as a gap.
	Retries int
	// Checkpoint is the journal path ("" disables checkpointing).
	// Completed cells are appended as they finish; the file is removed
	// after a fully successful run.
	Checkpoint string
	// Resume loads completed cells from Checkpoint before executing, so
	// an interrupted run continues where it stopped. A missing file is
	// not an error and a torn tail is healed; a file written under
	// different Options (ErrJournalMismatch) or damaged above a valid
	// record (ErrJournalCorrupt) is an error. Without Resume the run
	// starts a fresh checkpoint.
	Resume bool
	// Options is the base experiment configuration. Its Runner field is
	// owned by the harness and overwritten.
	Options exper.Options
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
	// Registry, when non-nil, receives the harness's own metrics —
	// per-cell wall-clock and queue-wait histograms, retry/failure
	// counters, in-flight gauge. Pass the same registry the simulator
	// metrics (Options.Metrics) live in for a single run-wide scrape.
	Registry *telemetry.Registry
	// ProgressEvery, when positive, emits a periodic progress line via
	// Logf during the execute pass: cells done/planned, failures, ETA,
	// and the aggregate L1 MPKI of completed cells.
	ProgressEvery time.Duration
	// Execute, when non-nil, replaces exper.ExecuteJobContext as the
	// per-cell executor. The cluster coordinator plugs in here to
	// dispatch cells to remote workers while keeping the harness's
	// plan/memo/checkpoint/render pipeline — and therefore its
	// byte-identical output guarantee — untouched. The function must be
	// safe for concurrent calls and must honor ctx.
	Execute func(ctx context.Context, j exper.Job) (core.Result, error)
	// Traces, when non-nil (and Execute is nil), runs cells through the
	// workload compiler: the first cell for a spec compiles its trace
	// segment into the executor's content-addressed store, and every
	// later cell for the same spec — Params sweeps included — replays
	// it at memcpy speed, byte-identical to live synthesis. Trace-backed
	// specs (workloads.Spec.TraceRef) require it.
	Traces *tracec.Executor
	// Preload seeds the memo with already-completed cells (canonical
	// cell key → result) before planning, exactly as a resumed
	// checkpoint would. The cluster coordinator plugs its journal
	// replay in here so a takeover-resume re-executes nothing the
	// previous coordinator recorded. Keys must have been computed under
	// the same Options; the caller owns that binding (the cluster
	// journal header enforces it).
	Preload map[string]core.Result
}

// ExperimentResult is one experiment's outcome: its rendered tables, or
// the error that annotates the gap it left in the suite.
type ExperimentResult struct {
	ID      string
	Title   string
	Tables  []*stats.Table
	Err     error
	Elapsed time.Duration
}

// Suite executes experiments through the plan/execute/render pipeline.
type Suite struct {
	cfg Config
	hm  *harnessMetrics // nil unless cfg.Registry was set

	mu       sync.Mutex
	memo     map[string]core.Result
	failed   map[string]*RunError
	jrnl     *Journal[checkpointCell]
	planned  int
	inflight map[string]inflightCell

	// onCellDone, when set, is called after every executed cell has been
	// recorded (test hook for cancellation at a known point).
	onCellDone func(key string)
}

// New constructs a Suite. The zero Config runs cells on GOMAXPROCS
// workers with no timeout, no retries, and no checkpoint.
func New(cfg Config) *Suite {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Suite{
		cfg:      cfg,
		memo:     make(map[string]core.Result),
		failed:   make(map[string]*RunError),
		inflight: make(map[string]inflightCell),
	}
	if cfg.Registry != nil {
		s.hm = newHarnessMetrics(cfg.Registry)
	}
	return s
}

// Run executes the experiments and returns one result per experiment,
// in input order. Per-cell and per-experiment failures are reported in
// the results, not as the suite error; the returned error is reserved
// for suite-level conditions — cancellation and checkpoint I/O.
func (s *Suite) Run(ctx context.Context, exps []exper.Experiment) ([]ExperimentResult, error) {
	opt := s.cfg.Options
	opt.Runner = nil
	opt = opt.WithDefaults()

	if len(s.cfg.Preload) > 0 {
		s.mu.Lock()
		for k, v := range s.cfg.Preload {
			s.memo[k] = v
		}
		s.mu.Unlock()
		s.cfg.Logf("preloaded %d completed cells", len(s.cfg.Preload))
	}
	if s.cfg.Checkpoint != "" {
		if err := s.openCheckpoint(opt); err != nil {
			return nil, err
		}
		defer s.jrnl.Close() //nolint:errcheck // every record is already durable
	}

	jobs := s.plan(exps, opt)
	pending := 0
	s.mu.Lock()
	s.planned = len(jobs)
	for _, pj := range jobs {
		if _, ok := s.memo[pj.key]; !ok {
			pending++
		}
	}
	s.mu.Unlock()
	s.cfg.Logf("planned %d cells (%d to execute) across %d experiments, %d workers",
		len(jobs), pending, len(exps), s.cfg.Workers)

	if err := s.execute(ctx, jobs); err != nil {
		return nil, err
	}

	results := s.render(ctx, exps, opt)
	if ctx.Err() != nil {
		return results, ctx.Err()
	}

	clean := len(s.failed) == 0
	for _, r := range results {
		if r.Err != nil {
			clean = false
		}
	}
	if clean && s.jrnl != nil {
		if err := s.jrnl.Remove(); err != nil {
			s.cfg.Logf("leaving checkpoint %s: %v", s.cfg.Checkpoint, err)
		}
	}
	return results, nil
}

// openCheckpoint opens the checkpoint journal. Without Resume the run
// starts a fresh journal; with it, the journal's completed cells are
// loaded into the memo first.
func (s *Suite) openCheckpoint(opt exper.Options) error {
	if !s.cfg.Resume {
		if err := os.Remove(s.cfg.Checkpoint); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("harness: replacing checkpoint: %w", err)
		}
	}
	j, cells, err := OpenJournal(s.cfg.Checkpoint, checkpointFormat, opt, s.cfg.Logf)
	if err != nil {
		return err
	}
	s.jrnl = j
	s.mu.Lock()
	for _, c := range cells {
		s.memo[c.Key] = *c.Result
	}
	s.mu.Unlock()
	if len(cells) > 0 {
		s.cfg.Logf("resumed %d completed cells from %s", len(cells), s.cfg.Checkpoint)
	}
	return nil
}

// journalCell appends a completed cell to the checkpoint, if any. The
// append fsyncs, so callers make it outside the suite lock; the journal
// serializes itself.
func (s *Suite) journalCell(key string, res core.Result) {
	if s.jrnl == nil {
		return
	}
	if err := s.jrnl.Append(checkpointCell{Key: key, Result: &res}); err != nil {
		s.cfg.Logf("checkpoint append: %v", err)
	}
}

// plannedJob couples a cell with its content-addressed key. enqueued is
// stamped by the execute feed loop so workers can report queue wait.
type plannedJob struct {
	key      string
	job      exper.Job
	enqueued time.Time
}

// plan discovers the deduplicated cell set by running every experiment
// against a recording runner. A plan failure (an experiment that
// panics or errors when fed stub results) only costs parallelism: the
// render pass executes whatever the plan missed inline.
func (s *Suite) plan(exps []exper.Experiment, opt exper.Options) []plannedJob {
	rec := &planRecorder{seen: make(map[string]bool)}
	opt.Runner = rec
	for _, e := range exps {
		if err := planOne(e, opt); err != nil {
			s.cfg.Logf("plan %s: %v (its cells will run serially)", e.ID, err)
		}
	}
	return rec.jobs
}

func planOne(e exper.Experiment, opt exper.Options) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("planning panicked: %v", r)
		}
	}()
	_, err = e.Run(opt)
	return err
}

// execute runs every not-yet-memoized cell on the worker pool. It
// returns an error only when ctx was cancelled before all cells
// completed; cell failures are recorded per key.
func (s *Suite) execute(ctx context.Context, jobs []plannedJob) error {
	todo := make([]plannedJob, 0, len(jobs))
	s.mu.Lock()
	resumed := len(s.memo)
	for _, pj := range jobs {
		if _, ok := s.memo[pj.key]; !ok {
			todo = append(todo, pj)
		}
	}
	s.mu.Unlock()
	if len(todo) == 0 {
		return ctx.Err()
	}

	if s.cfg.ProgressEvery > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go s.progressLoop(time.Now(), resumed, stop)
	}

	ch := make(chan plannedJob)
	var wg sync.WaitGroup
	for i := 0; i < s.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pj := range ch {
				if s.hm != nil {
					s.hm.queueSeconds.Observe(time.Since(pj.enqueued).Seconds())
				}
				s.runAndRecord(ctx, pj)
			}
		}()
	}
feed:
	for i := range todo {
		todo[i].enqueued = time.Now()
		select {
		case <-ctx.Done():
			break feed
		case ch <- todo[i]:
		}
	}
	close(ch)
	wg.Wait()
	return ctx.Err()
}

// runAndRecord executes one cell (with retries) and records the outcome
// under the suite lock. Cancelled attempts are recorded nowhere so a
// resumed run retries them.
func (s *Suite) runAndRecord(ctx context.Context, pj plannedJob) {
	start := time.Now()
	s.mu.Lock()
	s.inflight[pj.key] = inflightCell{
		workload: pj.job.Spec.Name,
		config:   pj.job.Params.Kind.String(),
		at:       start,
	}
	s.mu.Unlock()
	if s.hm != nil {
		s.hm.inFlight.Add(1)
	}
	res, rerr := s.runCell(ctx, pj)
	if s.hm != nil {
		s.hm.inFlight.Add(-1)
		s.hm.cellSeconds.Observe(time.Since(start).Seconds())
	}
	if rerr != nil && ctx.Err() != nil {
		s.mu.Lock()
		delete(s.inflight, pj.key)
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	delete(s.inflight, pj.key)
	recorded := false
	if rerr != nil {
		if s.hm != nil {
			s.hm.cellsFailed.Inc()
		}
		s.failed[pj.key] = rerr
		s.cfg.Logf("cell %s/%s failed: %v", rerr.Workload, rerr.Config, rerr.Cause)
	} else {
		if s.hm != nil {
			s.hm.cellsDone.Inc()
		}
		s.memo[pj.key] = res
		recorded = true
	}
	hook := s.onCellDone
	s.mu.Unlock()
	// The checkpoint append fsyncs; it must not happen under the suite
	// lock, or one slow disk barrier stalls every worker's result
	// recording. The journal serializes itself, and a crash between the
	// memo update and the append costs at most a retried cell on resume —
	// the same window the old order had between append and unlock.
	if recorded {
		s.journalCell(pj.key, res)
	}
	if hook != nil {
		hook(pj.key)
	}
}

// runCell executes one cell with panic recovery, the per-cell deadline,
// and bounded retries. Attempt 0 uses the job's own seed — so a clean
// first attempt reproduces exactly what a sequential run computes —
// and each retry derives a fresh seed from the cell key and attempt
// number, independent of goroutine scheduling.
func (s *Suite) runCell(ctx context.Context, pj plannedJob) (core.Result, *RunError) {
	attempts := s.cfg.Retries + 1
	var lastErr error
	var lastSeed int64
	for a := 0; a < attempts; a++ {
		j := pj.job
		if a > 0 {
			j.Seed = retrySeed(pj.key, a)
			if s.hm != nil {
				s.hm.retries.Inc()
			}
		}
		lastSeed = j.Seed
		res, err := s.attemptCell(ctx, j)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return core.Result{}, &RunError{
		Workload: pj.job.Spec.Name,
		Config:   pj.job.Params.Kind.String(),
		Key:      pj.key,
		Seed:     lastSeed,
		Attempts: attempts,
		Cause:    lastErr,
	}
}

// attemptCell is one attempt: deadline applied, panics recovered.
func (s *Suite) attemptCell(ctx context.Context, j exper.Job) (res core.Result, err error) {
	if s.cfg.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.CellTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if s.cfg.Execute != nil {
		return s.cfg.Execute(ctx, j)
	}
	if s.cfg.Traces != nil {
		return s.cfg.Traces.ExecuteJob(ctx, j)
	}
	return exper.ExecuteJobContext(ctx, j)
}

// render re-runs every experiment serially against the memoized
// results, producing output identical to a sequential run. Experiments
// stop rendering once ctx is cancelled.
func (s *Suite) render(ctx context.Context, exps []exper.Experiment, opt exper.Options) []ExperimentResult {
	out := make([]ExperimentResult, 0, len(exps))
	opt.Runner = &servingRunner{ctx: ctx, s: s}
	for _, e := range exps {
		if ctx.Err() != nil {
			out = append(out, ExperimentResult{ID: e.ID, Title: e.Title, Err: ctx.Err()})
			continue
		}
		start := time.Now()
		tables, err := renderOne(e, opt)
		out = append(out, ExperimentResult{
			ID: e.ID, Title: e.Title,
			Tables: tables, Err: err,
			Elapsed: time.Since(start),
		})
	}
	return out
}

func renderOne(e exper.Experiment, opt exper.Options) (tables []*stats.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment %s panicked outside a cell: %v\n%s", e.ID, r, debug.Stack())
		}
	}()
	return e.Run(opt)
}
