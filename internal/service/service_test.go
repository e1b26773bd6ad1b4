package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"xlate/internal/exper"
	"xlate/internal/telemetry"
)

// cellBody is the canonical small cell job the tests submit: the
// smallest catalog workload at a reduced footprint, so a run costs
// milliseconds while exercising the full simulation path.
const cellBody = `{"workload":"swaptions","config":"4KB","instrs":200000,"scale":0.25,"seed":7}`

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func postJob(t *testing.T, ts *httptest.Server, body string) (JobStatus, *http.Response) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding HTTP %d response: %v", resp.StatusCode, err)
	}
	return st, resp
}

func getStatus(t *testing.T, ts *httptest.Server, path string) JobStatus {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding %s (HTTP %d): %v", path, resp.StatusCode, err)
	}
	return st
}

func getBody(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// checkNoLeaks polls until the goroutine count returns to (near) the
// recorded baseline — the drain contract: no worker, waiter, or handler
// goroutine outlives Drain plus server close.
func checkNoLeaks(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak after drain: %d live, baseline %d\n%s", n, base, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSingleflightDedupAndCache is the acceptance path: two identical
// submissions while the first is in flight fold into one execution,
// the payload is byte-identical to a local run of the same cell, a
// resubmission is a cache hit, and the drain leaks nothing.
func TestSingleflightDedupAndCache(t *testing.T) {
	base := runtime.NumGoroutine()
	s := newTestServer(t, Config{Workers: 1, SpoolDir: filepath.Join(t.TempDir(), "spool")})
	gate := make(chan struct{})
	s.testHookRunning = func(*job) { <-gate }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st1, resp1 := postJob(t, ts, cellBody)
	if resp1.StatusCode != http.StatusAccepted || st1.ID == "" {
		t.Fatalf("first submit: HTTP %d, %+v", resp1.StatusCode, st1)
	}
	// The worker is parked in the test hook, so the job is provably in
	// flight when the identical submission arrives.
	st2, resp2 := postJob(t, ts, cellBody)
	if resp2.StatusCode != http.StatusAccepted || !st2.Deduped {
		t.Fatalf("identical submit should dedup: HTTP %d, %+v", resp2.StatusCode, st2)
	}
	if st2.ID != st1.ID {
		t.Fatalf("dedup changed the job id: %s vs %s", st2.ID, st1.ID)
	}
	close(gate)

	st := getStatus(t, ts, "/v1/jobs/"+st1.ID+"?wait=30s")
	if st.State != StateDone {
		t.Fatalf("job did not complete: %+v", st)
	}

	code, p1 := getBody(t, ts, st.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("result fetch: HTTP %d", code)
	}
	_, p2 := getBody(t, ts, st.ResultURL)
	if !bytes.Equal(p1, p2) {
		t.Error("two fetches of the same key returned different bytes")
	}

	// The daemon's payload must be byte-identical to running the same
	// cell locally — the exactness the content-addressed cache promises.
	var req SubmitRequest
	if err := json.Unmarshal([]byte(cellBody), &req); err != nil {
		t.Fatal(err)
	}
	r, err := resolve(req, cellDefaults{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := exper.ExecuteJobContext(context.Background(), r.cell)
	if err != nil {
		t.Fatal(err)
	}
	want, err := marshalPayload(CellResult{
		Key: r.key, Kind: kindCell, Workload: "swaptions", Config: "4KB", Result: res,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1, want) {
		t.Errorf("daemon payload differs from a local run of the same cell:\n--- daemon ---\n%s\n--- local ---\n%s", p1, want)
	}

	st3, resp3 := postJob(t, ts, cellBody)
	if resp3.StatusCode != http.StatusOK || !st3.Cached {
		t.Fatalf("resubmission should be a cache hit: HTTP %d, %+v", resp3.StatusCode, st3)
	}

	if got := s.m.admitted.Load(); got != 1 {
		t.Errorf("admitted = %d, want 1 (singleflight)", got)
	}
	if got := s.m.deduped.Load(); got != 1 {
		t.Errorf("deduped = %d, want 1", got)
	}
	if s.m.cacheHits.Load() == 0 {
		t.Error("cache hits not recorded")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()
	ts.Client().CloseIdleConnections()
	checkNoLeaks(t, base)
}

// TestConditionalResultFetch covers the content-addressed HTTP caching:
// the key is the entity tag, so a matching If-None-Match skips the body.
func TestConditionalResultFetch(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, _ := postJob(t, ts, cellBody)
	st = getStatus(t, ts, "/v1/jobs/"+st.ID+"?wait=30s")
	if st.State != StateDone {
		t.Fatalf("job did not complete: %+v", st)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+st.ResultURL, nil)
	req.Header.Set("If-None-Match", `"`+st.ID+`"`)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("matching If-None-Match: HTTP %d, want 304", resp.StatusCode)
	}
}

func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxQueue: 1})
	started := make(chan string, 4)
	gate := make(chan struct{})
	s.testHookRunning = func(j *job) { started <- j.id; <-gate }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func(seed int) (JobStatus, *http.Response) {
		body := strings.Replace(cellBody, `"seed":7`, `"seed":`+string(rune('0'+seed)), 1)
		return postJob(t, ts, body)
	}
	if st, resp := submit(1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d, %+v", resp.StatusCode, st)
	}
	<-started // the only worker is now occupied
	if _, resp := submit(2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit should queue: HTTP %d", resp.StatusCode)
	}
	st, resp := submit(3)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit should hit the queue bound: HTTP %d, %+v", resp.StatusCode, st)
	}
	if st.RetryAfter < 1 {
		t.Errorf("429 should estimate a retry delay, got %g", st.RetryAfter)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 should carry a Retry-After header")
	}
	if got := s.m.rejected.Load(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}

	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestDrainStopsAdmissionAndFinishesWork(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	started := make(chan string, 1)
	gate := make(chan struct{})
	s.testHookRunning = func(j *job) { started <- j.id; <-gate }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, _ := postJob(t, ts, cellBody)
	id := <-started

	drainErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() { drainErr <- s.Drain(ctx) }()
	for !s.Status().Draining {
		time.Sleep(5 * time.Millisecond)
	}

	if code, _ := getBody(t, ts, "/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: HTTP %d, want 503", code)
	}
	other := strings.Replace(cellBody, `"seed":7`, `"seed":8`, 1)
	if st, resp := postJob(t, ts, other); resp.StatusCode != http.StatusServiceUnavailable || st.RetryAfter < 1 {
		t.Errorf("submit while draining: HTTP %d, %+v, want 503 with a retry estimate", resp.StatusCode, st)
	}

	close(gate) // let the in-flight job finish
	if err := <-drainErr; err != nil {
		t.Fatalf("drain should complete cleanly once work finishes: %v", err)
	}
	// The drained job completed and its result is servable.
	got, ok := s.lookup(id)
	if !ok || got.State != StateDone {
		t.Errorf("drained job state = %+v, want done", got)
	}
	if code, _ := getBody(t, ts, "/v1/results/"+st.ID); code != http.StatusOK {
		t.Errorf("result after drain: HTTP %d", code)
	}
}

// TestDrainDeadlineCancelsInflight covers the forced half of the drain
// contract: past the deadline the run context is cancelled, the job
// fails with context.Canceled, and the daemon still winds down.
func TestDrainDeadlineCancelsInflight(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, SpoolDir: filepath.Join(t.TempDir(), "spool")})
	started := make(chan string, 1)
	s.testHookRunning = func(j *job) {
		started <- j.id
		<-s.runCtx.Done() // hold the job until the drain forces cancellation
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJob(t, ts, cellBody)
	id := <-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain error = %v, want DeadlineExceeded", err)
	}
	st, ok := s.lookup(id)
	if !ok || st.State != StateFailed {
		t.Fatalf("cancelled job state = %+v, want failed", st)
	}
	if !strings.Contains(st.Error, context.Canceled.Error()) {
		t.Errorf("cancelled job error = %q, want context.Canceled in it", st.Error)
	}
	if got := s.m.failed.Load(); got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}
}

func TestExperimentJobWithLogStream(t *testing.T) {
	spool := filepath.Join(t.TempDir(), "spool")
	s := newTestServer(t, Config{Workers: 1, SpoolDir: spool})
	gate := make(chan struct{})
	s.testHookRunning = func(*job) { <-gate }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, resp := postJob(t, ts, `{"experiment":"table2"}`)
	if resp.StatusCode != http.StatusAccepted || st.Kind != kindExperiment {
		t.Fatalf("experiment submit: HTTP %d, %+v", resp.StatusCode, st)
	}

	// Attach the log stream while the job is held in flight, then
	// release it; the stream replays the history and tails to the end.
	lines := make(chan []string, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + st.LogURL)
		if err != nil {
			lines <- nil
			return
		}
		defer resp.Body.Close()
		var got []string
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			got = append(got, sc.Text())
		}
		lines <- got
	}()
	time.Sleep(20 * time.Millisecond) // let the stream attach before releasing
	close(gate)

	final := getStatus(t, ts, "/v1/jobs/"+st.ID+"?wait=30s")
	if final.State != StateDone {
		t.Fatalf("experiment job did not complete: %+v", final)
	}
	got := <-lines
	joined := strings.Join(got, "\n")
	for _, want := range []string{"admitted experiment job", "done in"} {
		if !strings.Contains(joined, want) {
			t.Errorf("log stream missing %q:\n%s", want, joined)
		}
	}

	_, payload := getBody(t, ts, final.ResultURL)
	var er ExperimentResult
	if err := json.Unmarshal(payload, &er); err != nil {
		t.Fatal(err)
	}
	if er.Experiment != "table2" || len(er.Tables) == 0 {
		t.Fatalf("experiment payload incomplete: %+v", er)
	}
	if !strings.Contains(er.Tables[0].Markdown, "|") || er.Tables[0].CSV == "" {
		t.Error("experiment tables should render markdown and CSV")
	}

	// A clean experiment run leaves no checkpoint behind in the spool.
	leftover, err := filepath.Glob(filepath.Join(spool, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftover) != 0 {
		t.Errorf("spool should be empty after a clean run, found %v", leftover)
	}
}

func TestMetricsAndStatusOnSameMux(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJob(t, ts, cellBody)
	getStatus(t, ts, "/v1/jobs/"+mustKey(t, cellBody)+"?wait=30s")

	code, metrics := getBody(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	for _, want := range []string{
		"xlate_service_jobs_admitted_total",
		"xlate_service_jobs_completed_total",
		"xlate_service_cache_entries",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	code, status := getBody(t, ts, "/status")
	if code != http.StatusOK {
		t.Fatalf("/status: HTTP %d", code)
	}
	var snap struct {
		Run struct {
			Workers      int `json:"workers"`
			CacheEntries int `json:"cache_entries"`
		} `json:"run"`
		Metrics []json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(status, &snap); err != nil {
		t.Fatalf("/status is not the expected JSON: %v\n%s", err, status)
	}
	if snap.Run.Workers != 1 || snap.Run.CacheEntries != 1 || len(snap.Metrics) == 0 {
		t.Errorf("/status snapshot incomplete: %+v", snap)
	}

	if code, _ := getBody(t, ts, "/v1/experiments"); code != http.StatusOK {
		t.Errorf("/v1/experiments: HTTP %d", code)
	}
}

// mustKey resolves a submit body to its content-addressed job id.
func mustKey(t *testing.T, body string) string {
	t.Helper()
	var req SubmitRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	r, err := resolve(req, cellDefaults{})
	if err != nil {
		t.Fatal(err)
	}
	return r.key
}

func TestHTTPValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, resp := postJob(t, ts, `{"workload":`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: HTTP %d, want 400", resp.StatusCode)
	}
	if _, resp := postJob(t, ts, `{"werkload":"mcf"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}
	if st, resp := postJob(t, ts, `{}`); resp.StatusCode != http.StatusBadRequest || st.Error == "" {
		t.Errorf("empty submission: HTTP %d, want 400 with an error", resp.StatusCode)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/jobs: HTTP %d, want 405", resp.StatusCode)
	}
	if code, _ := getBody(t, ts, "/v1/jobs/no-such-job"); code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}
	if code, _ := getBody(t, ts, "/v1/results/no-such-key"); code != http.StatusNotFound {
		t.Errorf("unknown result: HTTP %d, want 404", code)
	}
}

func TestResolveValidation(t *testing.T) {
	cases := []struct {
		name    string
		req     SubmitRequest
		cap     uint64
		wantErr string
	}{
		{"neither", SubmitRequest{}, 0, "exactly one"},
		{"both", SubmitRequest{Workload: "mcf", Experiment: "fig2"}, 0, "exactly one"},
		{"unknown workload", SubmitRequest{Workload: "nope", Config: "4KB"}, 0, "unknown workload"},
		{"missing config", SubmitRequest{Workload: "mcf"}, 0, "need a config"},
		{"unknown config", SubmitRequest{Workload: "mcf", Config: "zap"}, 0, "unknown config"},
		{"unknown experiment", SubmitRequest{Experiment: "nope"}, 0, "unknown experiment"},
		{"experiment with config", SubmitRequest{Experiment: "fig2", Config: "4KB"}, 0, "cell jobs only"},
		{"scale too large", SubmitRequest{Workload: "mcf", Config: "4KB", Scale: 65}, 0, "out of range"},
		{"negative scale", SubmitRequest{Workload: "mcf", Config: "4KB", Scale: -1}, 0, "out of range"},
		{"over the cap", SubmitRequest{Workload: "mcf", Config: "4KB", Instrs: 2_000_000}, 1_000_000, "admission cap"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := resolve(c.req, cellDefaults{maxInstrs: c.cap})
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("error = %v, want ErrBadRequest", err)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error = %q, want %q in it", err, c.wantErr)
			}
		})
	}
}

func TestResolveIdentity(t *testing.T) {
	base := SubmitRequest{Workload: "swaptions", Config: "RMM_Lite", Instrs: 1000, Scale: 0.5, Seed: 3}
	a, err := resolve(base, cellDefaults{})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := resolve(base, cellDefaults{})
	if a.key != b.key {
		t.Error("identical requests must share a key")
	}
	lower := base
	lower.Config = "rmm_lite"
	if c, _ := resolve(lower, cellDefaults{}); c.key != a.key {
		t.Error("config lookup should be case-insensitive")
	}
	seeded := base
	seeded.Seed = 4
	if d, _ := resolve(seeded, cellDefaults{}); d.key == a.key {
		t.Error("seed must be part of the identity")
	}

	e1, err := resolve(SubmitRequest{Experiment: "fig2", Instrs: 1000, Scale: 0.5, Seed: 3}, cellDefaults{})
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := resolve(SubmitRequest{Experiment: "fig2", Instrs: 1000, Scale: 0.5, Seed: 4}, cellDefaults{})
	if e1.key == e2.key {
		t.Error("experiment options must be part of the identity")
	}
}

func TestLogBuffer(t *testing.T) {
	b := newLogBuffer()
	b.append("one")
	b.append("two")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []string
	done := make(chan error, 1)
	go func() {
		done <- b.tail(ctx, func(line string) error { got = append(got, line); return nil })
	}()
	time.Sleep(10 * time.Millisecond)
	b.append("three")
	b.finish()
	if err := <-done; err != nil {
		t.Fatalf("tail: %v", err)
	}
	if strings.Join(got, ",") != "one,two,three" {
		t.Errorf("tail saw %v", got)
	}
	// Appending after finish is a no-op, not a panic.
	b.append("late")
	if lines, done, _ := b.next(0); !done || len(lines) != 3 {
		t.Errorf("post-finish state: done=%v lines=%v", done, lines)
	}

	// A cancelled tailer returns promptly with the context error.
	b2 := newLogBuffer()
	ctx2, cancel2 := context.WithCancel(context.Background())
	tailErr := make(chan error, 1)
	go func() { tailErr <- b2.tail(ctx2, func(string) error { return nil }) }()
	cancel2()
	select {
	case err := <-tailErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled tail error = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled tail did not return")
	}
}

// A wire cell modelling a 64 TiB region is refused at admission with
// 400, before any worker tries to build it.
func TestSubmitRefusesHugeFootprint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	w := EncodeJob(wireTestJob(t))
	w.Spec.Regions = slices.Clone(w.Spec.Regions)
	w.Spec.Regions[0].Bytes = 1 << 46
	body, err := json.Marshal(SubmitRequest{Cell: &w})
	if err != nil {
		t.Fatal(err)
	}
	st, resp := postJob(t, ts, string(body))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(st.Error, "-byte bound") {
		t.Fatalf("HTTP %d, error %q; want 400 naming the footprint bound", resp.StatusCode, st.Error)
	}
}
