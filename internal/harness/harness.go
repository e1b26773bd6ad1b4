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
//     checkpoint) run on the worker pool, grouped by the reference
//     stream they read so a group's members share one generator
//     (exper.SharedStream). A panicking cell is recovered into a
//     structured RunError carrying the cell identity, seed, recovered
//     value, and stack; it fails that cell, never the suite.
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
	"sync/atomic"
	"time"

	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/stats"
	"xlate/internal/telemetry"
)

// Config parameterizes a Suite.
type Config struct {
	// Workers is the number of cell slots (default GOMAXPROCS). A
	// stream group — the cells that read one reference stream — holds
	// min(members, Workers) slots but runs all its members at once, so
	// a group of more than Workers cells runs more goroutines than
	// Workers (at most memberCap).
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
	// Execute is the per-cell executor (default
	// exper.ExecuteJobContext, live synthesis). The service daemon
	// passes a tracec.Executor's ExecuteJob here to also replay
	// ingested segments; the cluster coordinator plugs in to dispatch
	// cells to remote workers while keeping the harness's plan/memo/
	// checkpoint/render pipeline — and therefore its byte-identical
	// output guarantee — untouched. The function must be safe for
	// concurrent calls and must honor ctx.
	Execute func(ctx context.Context, j exper.Job) (core.Result, error)
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
	ID     string
	Title  string
	Tables []*stats.Table
	Err    error
	// Elapsed is the execute time of the cells this run simulated for
	// the experiment, plus its render time. A cell several experiments
	// share counts for the first that plans it; a cell served from a
	// checkpoint or preload counts nothing.
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
	// cellTime is each executed cell's execute time, retries included.
	cellTime map[string]time.Duration

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
	if cfg.Execute == nil {
		cfg.Execute = exper.ExecuteJobContext
	}
	s := &Suite{
		cfg:      cfg,
		memo:     make(map[string]core.Result),
		failed:   make(map[string]*RunError),
		inflight: make(map[string]inflightCell),
		cellTime: make(map[string]time.Duration),
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
	var todo []plannedJob
	s.mu.Lock()
	s.planned = len(jobs)
	resumed := len(s.memo)
	for _, pj := range jobs {
		if _, ok := s.memo[pj.key]; !ok {
			todo = append(todo, pj)
		}
	}
	s.mu.Unlock()
	groups := streamGroups(todo)
	s.cfg.Logf("planned %d cells (%d to execute in %d streams) across %d experiments, %d workers",
		len(jobs), len(todo), len(groups), len(exps), s.cfg.Workers)

	if err := s.execute(ctx, groups, resumed); err != nil {
		return nil, err
	}

	executed := make([]time.Duration, len(exps))
	s.mu.Lock()
	for _, pj := range jobs {
		executed[pj.exp] += s.cellTime[pj.key]
	}
	s.mu.Unlock()
	results := s.render(ctx, exps, opt, executed)
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

// plannedJob couples a cell with its content-addressed key and the
// index of the first experiment that planned it.
type plannedJob struct {
	key string
	job exper.Job
	exp int
}

// plan discovers the deduplicated cell set by running every experiment
// against a recording runner. A plan failure (an experiment that
// panics or errors when fed stub results) only costs parallelism: the
// render pass executes whatever the plan missed inline.
func (s *Suite) plan(exps []exper.Experiment, opt exper.Options) []plannedJob {
	rec := &planRecorder{seen: make(map[string]bool)}
	opt.Runner = rec
	for i, e := range exps {
		rec.exp = i
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

// memberCap bounds a stream group. A larger group is split, so one
// group never holds more than memberCap address spaces at once.
const memberCap = 6

// streamGroups partitions the cells by exper.StreamKey, at most
// memberCap cells a group, in the order of each group's first cell.
func streamGroups(todo []plannedJob) [][]plannedJob {
	var groups [][]plannedJob
	open := make(map[string]int) // stream key → index of its last group
	for _, pj := range todo {
		k := exper.StreamKey(pj.job)
		i, ok := open[k]
		if !ok || len(groups[i]) == memberCap {
			i = len(groups)
			open[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], pj)
	}
	return groups
}

// execute runs the stream groups of the not-yet-memoized cells. A
// group's members start together, each with a seat on the group's
// shared stream, and hold min(members, Workers) of the Workers slots:
// as members finish, the group keeps min(running, its slots). A group
// thus runs more goroutines than Workers when it has more members, so
// that no member waits on a stream whose slowest reader has not
// started. execute returns an error only when ctx was cancelled before
// all cells completed; cell failures are recorded per key. resumed is
// how many cells the memo held before executing.
func (s *Suite) execute(ctx context.Context, groups [][]plannedJob, resumed int) error {
	if len(groups) == 0 {
		return ctx.Err()
	}

	if s.cfg.ProgressEvery > 0 {
		// The loop must have exited before execute returns, or a late
		// progress line races the caller's teardown of Logf.
		stop := make(chan struct{})
		var progress sync.WaitGroup
		progress.Add(1)
		go func() {
			defer progress.Done()
			s.progressLoop(time.Now(), resumed, stop)
		}()
		defer progress.Wait() // deferred calls run last-first: after close(stop)
		defer close(stop)
	}

	slots := make(chan struct{}, s.cfg.Workers)
	var wg sync.WaitGroup
feed:
	for _, g := range groups {
		enqueued := time.Now()
		hold := min(len(g), s.cfg.Workers)
		for i := 0; i < hold; i++ {
			select {
			case <-ctx.Done():
				break feed
			case slots <- struct{}{}:
			}
		}
		var running atomic.Int32
		running.Store(int32(len(g)))
		seats := exper.SharedStream(exper.StreamKey(g[0].job), len(g))
		for i, pj := range g {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if s.hm != nil {
					s.hm.queueSeconds.Observe(time.Since(enqueued).Seconds())
				}
				s.runAndRecord(exper.WithSeat(ctx, seats[i]), pj)
				seats[i].Release()
				if int(running.Add(-1)) < hold {
					<-slots
				}
			}()
		}
	}
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
	took := time.Since(start)
	if s.hm != nil {
		s.hm.inFlight.Add(-1)
		s.hm.cellSeconds.Observe(took.Seconds())
	}
	if rerr != nil && ctx.Err() != nil {
		s.mu.Lock()
		delete(s.inflight, pj.key)
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	delete(s.inflight, pj.key)
	s.cellTime[pj.key] = took
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
	return s.cfg.Execute(ctx, j)
}

// render re-runs every experiment serially against the memoized
// results, producing output identical to a sequential run. executed[i]
// is the execute time of the cells experiment i owns, which its
// Elapsed adds to the render time (including any cell the plan missed
// and render runs inline). Experiments stop rendering once ctx is
// cancelled.
func (s *Suite) render(ctx context.Context, exps []exper.Experiment, opt exper.Options, executed []time.Duration) []ExperimentResult {
	out := make([]ExperimentResult, 0, len(exps))
	opt.Runner = &servingRunner{ctx: ctx, s: s}
	for i, e := range exps {
		if ctx.Err() != nil {
			out = append(out, ExperimentResult{ID: e.ID, Title: e.Title, Err: ctx.Err()})
			continue
		}
		start := time.Now()
		tables, err := renderOne(e, opt)
		out = append(out, ExperimentResult{
			ID: e.ID, Title: e.Title,
			Tables: tables, Err: err,
			Elapsed: executed[i] + time.Since(start),
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
