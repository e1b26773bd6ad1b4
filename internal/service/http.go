package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"xlate/internal/exper"
	"xlate/internal/telemetry"
	"xlate/internal/tracec"
)

// maxWait bounds the ?wait long-poll so a stuck client cannot pin a
// handler goroutine forever.
const maxWait = 10 * time.Minute

// NewHTTPServer wraps h in the http.Server every eeatd listener uses:
// the service daemon, a worker, and the cluster coordinator. There is
// no WriteTimeout on purpose: /v1/jobs/{id}/log streams for the life
// of a job, and long-poll waits legitimately hold a response open.
// Slow readers are bounded instead by IdleTimeout between requests,
// ReadHeaderTimeout on arrival, and the MaxBytesReader each handler
// applies to its POST bodies.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// routes builds the daemon mux. The telemetry endpoints (/metrics,
// /status) are mounted on the same mux — one listener serves the job
// API and the observability surface, and both drain together.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/results/", s.handleResult)
	mux.HandleFunc("/v1/experiments", s.handleExperiments)
	if s.cfg.TraceStore != nil {
		// Trace ingestion + content-hash fetch (DESIGN.md §15). Mounted
		// only when a segment store exists — without one the endpoints
		// would accept streams they cannot replay.
		api := tracec.NewAPI(s.cfg.TraceStore, s.cfg.Logf)
		mux.Handle("/v1/traces", api)
		mux.Handle("/v1/traces/", api)
	}
	mux.Handle("/metrics", telemetry.MetricsHandler(s.cfg.Registry))
	mux.Handle("/status", telemetry.StatusHandler(s.cfg.Registry, func() any { return s.Status() }))
	return mux
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "eeatd — xlate simulation service")
	fmt.Fprintln(w, "  POST /v1/jobs            submit a job (?wait=30s long-polls for completion)")
	fmt.Fprintln(w, "  GET  /v1/jobs/{id}       job status (?wait=30s long-polls)")
	fmt.Fprintln(w, "  GET  /v1/jobs/{id}/log   stream the job's progress log")
	fmt.Fprintln(w, "  GET  /v1/results/{key}   cached result payload (content-addressed)")
	fmt.Fprintln(w, "  GET  /v1/experiments     the experiment catalogue")
	if s.cfg.TraceStore != nil {
		fmt.Fprintln(w, "  POST /v1/traces          ingest a reference stream (gzip ok) → trace:<key> workload")
		fmt.Fprintln(w, "  GET  /v1/traces/{key}    fetch a compiled segment by content hash")
	}
	fmt.Fprintln(w, "  GET  /metrics            Prometheus text format")
	fmt.Fprintln(w, "  GET  /status             JSON daemon snapshot")
	fmt.Fprintln(w, "  GET  /healthz            liveness (503 while draining)")
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, JobStatus{State: StateFailed, Error: "bad request body: " + err.Error()})
		return
	}
	st, code := s.submit(req)
	if wait := parseWait(r); wait > 0 && code == http.StatusAccepted {
		st = s.waitJob(r, st.ID, wait)
		if st.State == StateDone || st.State == StateFailed {
			code = http.StatusOK
		}
	}
	writeStatus(w, code, st)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id, ok := strings.CutSuffix(rest, "/log"); ok {
		s.handleJobLog(w, r, id)
		return
	}
	id := rest
	if id == "" || strings.Contains(id, "/") {
		http.NotFound(w, r)
		return
	}
	if wait := parseWait(r); wait > 0 {
		st := s.waitJob(r, id, wait)
		if st.ID == "" {
			http.NotFound(w, r)
			return
		}
		writeStatus(w, http.StatusOK, st)
		return
	}
	st, ok := s.lookup(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	writeStatus(w, http.StatusOK, st)
}

// waitJob long-polls: if the job is active it waits for completion (or
// the wait budget / client disconnect) and then reports whatever state
// the daemon knows. Returns a zero JobStatus for an unknown id.
func (s *Server) waitJob(r *http.Request, id string, wait time.Duration) JobStatus {
	j := s.activeJob(id)
	if j != nil {
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-j.done:
		case <-t.C:
		case <-r.Context().Done():
		}
		return s.status(j)
	}
	st, ok := s.lookup(id)
	if !ok {
		return JobStatus{}
	}
	return st
}

// handleJobLog streams a queued or running job's progress lines,
// flushing per line: the accumulated log replays first, then the
// stream tails live until the job completes or the client disconnects.
// Ids no longer in the active map 404 — the log dies with the job
// record; results are what the cache retains.
func (s *Server) handleJobLog(w http.ResponseWriter, r *http.Request, id string) {
	j := s.activeJob(id)
	if j == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	_ = j.log.tail(r.Context(), func(line string) error { // ctx error just ends the stream
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/v1/results/")
	if key == "" || strings.Contains(key, "/") {
		http.NotFound(w, r)
		return
	}
	// Content-addressed: the key IS the entity tag, and a match can
	// skip the body entirely.
	if r.Header.Get("If-None-Match") == `"`+key+`"` && s.cache.peek(key) {
		w.Header().Set("ETag", `"`+key+`"`)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	payload, ok := s.cache.get(key)
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("ETag", `"`+key+`"`)
	w.Header().Set("Cache-Control", "max-age=31536000, immutable")
	w.Write(payload) //nolint:errcheck // client hangup
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	type entry struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var out []entry
	for _, e := range exper.All() {
		out = append(out, entry{ID: e.ID, Title: e.Title})
	}
	writeJSON(w, http.StatusOK, out)
}

// parseWait reads the ?wait query parameter (a Go duration or bare
// seconds), clamped to maxWait. 0 means no waiting.
func parseWait(r *http.Request) time.Duration {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return 0
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		if secs, serr := strconv.Atoi(raw); serr == nil {
			d = time.Duration(secs) * time.Second
		} else {
			return 0
		}
	}
	if d < 0 {
		return 0
	}
	if d > maxWait {
		d = maxWait
	}
	return d
}

// writeStatus renders a JobStatus, adding the Retry-After header on
// backpressure rejections so well-behaved clients pace themselves.
func writeStatus(w http.ResponseWriter, code int, st JobStatus) {
	if st.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(st.RetryAfter)))
	}
	writeJSON(w, code, st)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client hangup
}
