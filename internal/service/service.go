// Package service is the long-running simulation daemon behind
// cmd/eeatd: an HTTP/JSON job service layered on the experiment
// substrate (internal/exper, internal/harness).
//
// The design (DESIGN.md §10) in one paragraph: submissions resolve to
// a content-addressed identity — the canonical harness cell key for
// single-cell jobs, a digest of artifact id + options for experiment
// jobs — and that identity drives everything. The result cache is
// keyed by it (a hit is exact: equal keys mean byte-identical
// payloads, because simulation is deterministic in the key's inputs);
// singleflight deduplication folds concurrent identical submissions
// into one execution of it; checkpoints spool under it so a drained
// experiment job resumes instead of restarting. Admission control
// bounds the queue: a full queue answers 429 with a Retry-After
// estimated from the recent job rate, and a draining daemon answers
// 503. Workers execute jobs under one run-scoped context; Drain stops
// admission, lets in-flight work finish, and past the deadline cancels
// it — experiment cells completed so far stay journaled via the
// harness checkpoint machinery.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/harness"
	"xlate/internal/keyed"
	"xlate/internal/telemetry"
	"xlate/internal/tracec"
)

// ErrBadRequest marks submissions rejected by validation; the HTTP
// layer maps it to 400.
var ErrBadRequest = errors.New("service: invalid job")

// Config parameterizes a Server.
type Config struct {
	// Workers is the number of concurrent job executors (default 2).
	// Each experiment job additionally parallelizes its own cells via
	// CellWorkers.
	Workers int
	// CellWorkers is the per-experiment-job harness pool size
	// (default 1: the daemon's concurrency budget lives in Workers).
	CellWorkers int
	// MaxQueue bounds jobs admitted but not yet running (default 64);
	// beyond it submissions are rejected with 429.
	MaxQueue int
	// MaxInstrs, when positive, rejects jobs asking for a larger
	// instruction budget — admission control against a single
	// submission monopolizing the daemon.
	MaxInstrs uint64
	// CacheEntries / CacheBytes / CacheTTL bound the result cache
	// (defaults 256 entries, unlimited bytes, no TTL).
	CacheEntries int
	CacheBytes   int64
	CacheTTL     time.Duration
	// SpoolDir, when set, holds per-job experiment checkpoints so a
	// drained or crashed job resumes its completed cells.
	SpoolDir string
	// Registry receives the daemon's metrics; required so /metrics
	// covers service, harness, and simulator layers in one scrape.
	Registry *telemetry.Registry
	// Tracer, when set, records worker-side spans (queue wait,
	// execution) for cell jobs carrying a propagated trace context. The
	// timestamp axis is microseconds since the server started.
	Tracer *telemetry.Tracer
	// TraceStore, when set, enables the trace subsystem (DESIGN.md §15):
	// the /v1/traces ingestion+fetch endpoints are mounted, "trace:<key>"
	// workloads become submittable, and trace-backed cells replay
	// segments from this store.
	TraceStore *tracec.Store
	// TraceUpstream, when set with TraceStore, is the base URL (the
	// cluster coordinator) missing segments are fetched from by content
	// hash, verified before use.
	TraceUpstream string
	// Logf receives daemon-level log lines (nil = silent).
	Logf func(format string, args ...any)
}

// Server is the daemon: a bounded job queue, a worker pool, the result
// cache, and the HTTP API over them.
type Server struct {
	cfg   Config
	m     *metrics
	cache *resultCache
	mux   *http.ServeMux
	start time.Time        // span timestamp base (Config.Tracer)
	exec  *tracec.Executor // runs every cell; replays need Config.TraceStore

	runCtx    context.Context
	runCancel context.CancelFunc

	mu        sync.Mutex
	draining  bool
	jobs      map[string]*job                  // queued or running, by key
	failures  *keyed.Cache[string, failRecord] // the maxFailures most recent
	execStats *keyed.Cache[string, execRecord] // the maxFailures most recent
	avgJobSec float64                          // EWMA of completed-job wall-clock

	queue chan *job
	wg    sync.WaitGroup

	// testHookRunning, when set, runs on the worker goroutine after the
	// job enters StateRunning and before it executes — tests block here
	// to hold a job in flight deterministically.
	testHookRunning func(*job)
}

// failRecord remembers a recently failed job so GET /v1/jobs/{id}
// stays answerable after the job record leaves the active map. The
// set is bounded (maxFailures, least recently recorded out) — failures
// are not cached as results precisely so a resubmission retries.
type failRecord struct {
	kind     string
	errMsg   string
	finished time.Time
	started  time.Time
}

const maxFailures = 128

// execRecord retains a completed job's timing and trace identity after
// its record leaves the active map. A fast job can finish before the
// client's wait GET even arrives; without this record that GET would
// fall through to the bare cache answer and the execution's queue-wait
// and run time (which the cluster coordinator stitches into its merged
// trace) would be lost. Bounded like failures.
type execRecord struct {
	kind     string
	traceID  string
	queueSec float64
	execSec  float64
}

// New builds a Server and starts its workers. Callers serve
// s.Handler() on a listener of their choosing and must end with Drain
// (or Close).
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.CellWorkers <= 0 {
		cfg.CellWorkers = 1
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.SpoolDir != "" {
		if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: spool dir: %w", err)
		}
	}
	m := newMetrics(cfg.Registry)
	s := &Server{
		cfg:       cfg,
		start:     time.Now(),
		m:         m,
		cache:     newResultCache(cfg.CacheEntries, cfg.CacheBytes, cfg.CacheTTL, m),
		jobs:      make(map[string]*job),
		failures:  keyed.New[string, failRecord](maxFailures, 0, 0, nil),
		execStats: keyed.New[string, execRecord](maxFailures, 0, 0, nil),
		queue:     make(chan *job, cfg.MaxQueue),
	}
	s.exec = &tracec.Executor{Store: cfg.TraceStore, Logf: cfg.Logf}
	if cfg.TraceStore != nil && cfg.TraceUpstream != "" {
		s.exec.Fetch = tracec.HTTPFetcher(cfg.TraceUpstream, nil)
	}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	s.mux = s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s, nil
}

// Handler returns the daemon's HTTP API (the /v1 job surface plus the
// telemetry /metrics and /status endpoints on the same mux — one
// listener serves both).
func (s *Server) Handler() http.Handler { return s.mux }

// submit is the admission path: resolve, cache, singleflight, queue —
// in that order, so work is never enqueued that a cheaper layer could
// answer. It returns the job status and the HTTP code to render it
// with.
func (s *Server) submit(req SubmitRequest) (JobStatus, int) {
	s.m.submitted.Inc()
	r, err := resolve(req, cellDefaults{maxInstrs: s.cfg.MaxInstrs, traces: s.cfg.TraceStore != nil})
	if err != nil {
		s.m.rejected.Inc()
		return JobStatus{State: StateFailed, Error: err.Error()}, http.StatusBadRequest
	}
	if _, ok := s.cache.get(r.key); ok {
		return JobStatus{
			ID: r.key, Kind: r.kind, State: StateDone, Cached: true,
			ResultURL: "/v1/results/" + r.key,
		}, http.StatusOK
	}

	s.mu.Lock()
	if existing, ok := s.jobs[r.key]; ok {
		st := s.statusLocked(existing)
		st.Deduped = true
		s.mu.Unlock()
		s.m.deduped.Inc()
		return st, http.StatusAccepted
	}
	if s.draining {
		retry := s.retryAfterLocked()
		s.mu.Unlock()
		s.m.rejected.Inc()
		return JobStatus{State: StateFailed, Error: "service: draining, not admitting jobs",
			RetryAfter: retry}, http.StatusServiceUnavailable
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		retry := s.retryAfterLocked()
		s.mu.Unlock()
		s.m.rejected.Inc()
		return JobStatus{State: StateFailed,
			Error:      fmt.Sprintf("service: queue full (%d jobs)", s.cfg.MaxQueue),
			RetryAfter: retry}, http.StatusTooManyRequests
	}
	j := &job{
		id: r.key, kind: r.kind, req: req, res: r,
		created: time.Now(), state: StateQueued,
		done: make(chan struct{}), log: newLogBuffer(),
	}
	s.jobs[r.key] = j
	//eeatlint:allow locksafe cannot block: depth is checked above under the same lock that gates every send
	s.queue <- j
	s.m.queueDepth.Set(int64(len(s.queue)))
	s.mu.Unlock()
	s.m.admitted.Inc()
	j.log.append(fmt.Sprintf("admitted %s job %s", j.kind, shortKey(j.id)))
	return s.status(j), http.StatusAccepted
}

// retryAfterLocked estimates seconds until the queue likely has room:
// the EWMA job duration times the queue depth, spread over the
// workers, clamped to [1s, 10min].
func (s *Server) retryAfterLocked() float64 {
	avg := s.avgJobSec
	if avg <= 0 {
		avg = 1
	}
	est := avg * float64(len(s.queue)+1) / float64(s.cfg.Workers)
	return math.Min(600, math.Max(1, math.Ceil(est)))
}

// runJob executes one job on a worker goroutine.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	s.m.queueDepth.Set(int64(len(s.queue)))
	s.mu.Unlock()
	s.m.inFlight.Add(1)
	s.m.queueWait.Observe(j.started.Sub(j.created).Seconds())
	j.log.append(fmt.Sprintf("running (queued %.1fs)", j.started.Sub(j.created).Seconds()))
	if h := s.testHookRunning; h != nil {
		h(j)
	}

	payload, err := s.execute(j)

	s.m.inFlight.Add(-1)
	now := time.Now()
	elapsed := now.Sub(j.created).Seconds()
	s.m.jobSeconds.Observe(elapsed)
	s.m.execSeconds.Observe(now.Sub(j.started).Seconds())
	s.emitJobSpans(j, now)

	if err == nil {
		// Publish to the cache before the job record leaves the active
		// map, so a concurrent GET always finds one of the two.
		s.cache.put(j.id, payload)
	}
	s.mu.Lock()
	j.finished = now
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
		s.failures.Put(j.id, failRecord{kind: j.kind, errMsg: j.errMsg, started: j.started, finished: j.finished}, 0)
	} else {
		j.state = StateDone
		j.payload = payload
		s.execStats.Put(j.id, execRecord{
			kind:     j.kind,
			traceID:  j.res.trace.TraceID,
			queueSec: j.started.Sub(j.created).Seconds(),
			execSec:  j.finished.Sub(j.started).Seconds(),
		}, 0)
	}
	delete(s.jobs, j.id)
	const alpha = 0.3
	if s.avgJobSec == 0 {
		s.avgJobSec = elapsed
	} else {
		s.avgJobSec = alpha*elapsed + (1-alpha)*s.avgJobSec
	}
	s.mu.Unlock()

	if err != nil {
		s.m.failed.Inc()
		j.log.append("failed: " + err.Error())
		s.cfg.Logf("job %s failed: %v", shortKey(j.id), err)
	} else {
		s.m.completed.Inc()
		j.log.append(fmt.Sprintf("done in %.1fs (%d payload bytes)", elapsed, len(payload)))
	}
	j.log.finish()
	close(j.done)
}

// emitJobSpans records the worker-side half of a traced cell's
// journey — one queue-wait span and one execution span on a fresh
// track, tagged with the propagated trace id — so a coordinator's
// merged trace can stitch both sides of the same cell together.
// Untraced jobs (no tracer, or no propagated context) emit nothing.
func (s *Server) emitJobSpans(j *job, finished time.Time) {
	tr := s.cfg.Tracer
	if tr == nil || !j.res.trace.Valid() {
		return
	}
	usSince := func(at time.Time) uint64 { return uint64(max(0, at.Sub(s.start).Microseconds())) }
	queued, started, end := usSince(j.created), usSince(j.started), usSince(finished)
	track := tr.NextTrack()
	args := []telemetry.KV{
		{K: "trace_id", V: j.res.trace.TraceID},
		{K: "parent_span", V: j.res.trace.ParentSpan},
		{K: "state", V: j.state},
	}
	tr.EmitSpan(track, queued, started-queued, "worker", "worker_queue", args...)
	tr.EmitSpan(track, started, end-started, "worker", "worker_exec", args...)
}

// execute runs the job's simulation work and renders its payload. A
// panic escaping the simulator fails the job, never the daemon.
func (s *Server) execute(j *job) (payload []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	switch j.kind {
	case kindCell:
		res, err := s.exec.ExecuteJob(s.runCtx, j.res.cell)
		if err != nil {
			return nil, err
		}
		return marshalPayload(CellResult{
			Key: j.id, Kind: kindCell,
			Workload: j.res.cell.Spec.Name,
			Config:   j.res.cell.Params.Kind.String(),
			Result:   res,
		})
	case kindExperiment:
		return s.executeExperiment(j)
	}
	return nil, fmt.Errorf("service: unknown job kind %q", j.kind)
}

// executeExperiment runs one artifact through the harness suite. The
// job's checkpoint lives in the spool under its key, and Resume is
// always on: a job cancelled by a drain (or a daemon crash) left its
// completed cells journaled, so the resubmission that follows a
// restart picks up where it stopped. The journal of a clean run is
// removed by the harness itself.
func (s *Server) executeExperiment(j *job) ([]byte, error) {
	hcfg := harness.Config{
		Workers:  s.cfg.CellWorkers,
		Options:  j.res.opt,
		Execute:  s.exec.ExecuteJob,
		Registry: s.cfg.Registry,
		Logf: func(format string, args ...any) {
			j.log.append(fmt.Sprintf(format, args...))
		},
	}
	hcfg.Options.Metrics = core.NewMetrics(s.cfg.Registry)
	if s.cfg.SpoolDir != "" {
		hcfg.Checkpoint = filepath.Join(s.cfg.SpoolDir, j.id+".ckpt")
		hcfg.Resume = true
	}
	results, err := harness.New(hcfg).Run(s.runCtx, []exper.Experiment{j.res.expr})
	if err != nil {
		return nil, err
	}
	if len(results) != 1 {
		return nil, fmt.Errorf("service: experiment %s rendered %d results", j.res.expr.ID, len(results))
	}
	r := results[0]
	if r.Err != nil {
		return nil, r.Err
	}
	out := ExperimentResult{
		Key: j.id, Kind: kindExperiment,
		Experiment: r.ID, Title: r.Title,
	}
	for _, t := range r.Tables {
		out.Tables = append(out.Tables, ExperimentTable{
			Title: t.Title, Markdown: t.Markdown(), CSV: t.CSV(),
		})
	}
	return marshalPayload(out)
}

// marshalPayload renders a payload deterministically: encoding/json
// emits struct fields in declaration order and shortest-round-trip
// floats, so identical results serialize to identical bytes — the
// property the content-addressed cache's exactness rests on.
func marshalPayload(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("service: encoding payload: %w", err)
	}
	return append(b, '\n'), nil
}

// status snapshots a job's lifecycle state under the server lock.
func (s *Server) status(j *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(j)
}

func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID: j.id, Kind: j.kind, State: j.state,
		LogURL: "/v1/jobs/" + j.id + "/log",
	}
	switch j.state {
	case StateQueued:
		st.Seconds = time.Since(j.created).Seconds()
	case StateRunning:
		st.Seconds = time.Since(j.started).Seconds()
	case StateDone:
		st.Seconds = j.finished.Sub(j.created).Seconds()
		st.ResultURL = "/v1/results/" + j.id
	case StateFailed:
		st.Seconds = j.finished.Sub(j.created).Seconds()
		st.Error = j.errMsg
	}
	// Terminal states echo the propagated trace context and the stage
	// timing this execution actually saw, so a tracing coordinator can
	// reconstruct worker-side spans without a second RPC. A cache-served
	// reply never reaches here and reports neither.
	if j.state == StateDone || j.state == StateFailed {
		st.TraceID = j.res.trace.TraceID
		st.QueueSeconds = j.started.Sub(j.created).Seconds()
		st.ExecSeconds = j.finished.Sub(j.started).Seconds()
	}
	return st
}

// lookup answers GET /v1/jobs/{id} for any job the daemon still knows:
// active jobs from the map, finished ones from the result cache (the
// key is the id), failures from the bounded failure record.
func (s *Server) lookup(id string) (JobStatus, bool) {
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		st := s.statusLocked(j)
		s.mu.Unlock()
		return st, true
	}
	fr, failed := s.failures.Peek(id)
	er, executed := s.execStats.Peek(id)
	s.mu.Unlock()
	if failed {
		return JobStatus{
			ID: id, Kind: fr.kind, State: StateFailed, Error: fr.errMsg,
			Seconds: fr.finished.Sub(fr.started).Seconds(),
		}, true
	}
	if s.cache.peek(id) {
		st := JobStatus{
			ID: id, State: StateDone, Cached: true,
			ResultURL: "/v1/results/" + id,
		}
		// A job this daemon executed recently reports the execution's
		// timing and trace identity even after its record left the
		// active map — the wait GET of a fast job lands here, and the
		// cluster coordinator needs the timing to stitch worker-side
		// spans. Genuinely cache-served ids (executed long ago, or by
		// a different submission's trace) report zeros as before.
		if executed {
			st.Kind = er.kind
			st.TraceID = er.traceID
			st.QueueSeconds = er.queueSec
			st.ExecSeconds = er.execSec
		}
		return st, true
	}
	return JobStatus{}, false
}

// activeJob returns the in-flight job record for id, if any.
func (s *Server) activeJob(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// StatusSnapshot is the service half of /status (the registry half
// comes from telemetry.StatusHandler).
type StatusSnapshot struct {
	Draining     bool        `json:"draining"`
	QueueDepth   int         `json:"queue_depth"`
	Workers      int         `json:"workers"`
	Jobs         []JobStatus `json:"jobs"`
	CacheEntries int         `json:"cache_entries"`
	CacheBytes   int64       `json:"cache_bytes"`
}

// Status snapshots the daemon for the /status endpoint and tests.
func (s *Server) Status() StatusSnapshot {
	s.mu.Lock()
	snap := StatusSnapshot{
		Draining:   s.draining,
		QueueDepth: len(s.queue),
		Workers:    s.cfg.Workers,
	}
	// Map order does not matter: the rows are sorted below.
	for _, j := range s.jobs {
		snap.Jobs = append(snap.Jobs, s.statusLocked(j))
	}
	s.mu.Unlock()
	sortJobs(snap.Jobs)
	snap.CacheEntries, snap.CacheBytes = s.cache.stats()
	return snap
}

func sortJobs(js []JobStatus) {
	for i := 1; i < len(js); i++ {
		for k := i; k > 0 && js[k].ID < js[k-1].ID; k-- {
			js[k], js[k-1] = js[k-1], js[k]
		}
	}
}

// Drain is the graceful-shutdown path: stop admitting (503), let
// queued and running jobs finish, and past ctx's deadline cancel the
// run context — in-flight experiment cells stop at the next
// cancellation poll with completed cells already journaled in the
// spool. Drain returns nil when every job finished cleanly, or
// ctx.Err() when the deadline forced cancellation. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue) // safe: every send is gated on !draining under this lock
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cfg.Logf("drain deadline reached, cancelling in-flight jobs (checkpoints kept)")
		s.runCancel()
		<-done
	}
	s.runCancel() // release the context either way
	return err
}

// Close cancels everything immediately: Drain with an already-expired
// deadline.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx) //nolint:errcheck // the error is the cancelled deadline itself
}

func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}
