package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"xlate/internal/exper"
	"xlate/internal/telemetry"
)

// traceEvent is the JSONL shape of one emitted trace event, just enough
// of it to check the cross-process merge.
type traceEvent struct {
	Ev      string  `json:"ev"`
	Cat     string  `json:"cat"`
	Dur     *uint64 `json:"dur"`
	TraceID string  `json:"trace_id"`
	Worker  string  `json:"worker"`
}

func httpGetBody(t *testing.T, url string) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// The tentpole integration test: one traced dev-cluster run must (a)
// stay byte-identical to the single-process report, (b) produce ONE
// merged trace where coordinator-side and worker-side spans of the same
// cell share a trace id, (c) account every planned cell at the workers:
// each worker's own /metrics, read at the base its /status row lists,
// sums to the planned cell count, (d) serve the cluster /status, and
// (e) yield a load report with positive throughput and ordered
// quantiles.
func TestClusterObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster run")
	}
	want := singleProcessReport(t)

	var traceBuf bytes.Buffer
	tracer := telemetry.NewTracer(&traceBuf, telemetry.TraceJSONL, 1)
	reg := telemetry.NewRegistry()
	dev, err := StartDev(context.Background(), DevConfig{
		Workers:  3,
		Options:  testOptions(),
		Retry:    fastRetry(),
		Registry: reg,
		Tracer:   tracer,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	suiteStart := time.Now()
	results, err := dev.Run(ctx, []exper.Experiment{fig2(t)})
	suiteWall := time.Since(suiteStart)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if n := WriteReport(&buf, results); n != 0 {
		t.Fatalf("%d experiments failed in the traced run", n)
	}
	if buf.String() != want {
		t.Error("tracing changed the report: the traced cluster run is not byte-identical to the single-process run")
	}

	base := dev.CoordinatorBase()

	// (d) Cluster /status over real HTTP; the executed-cell count lives
	// in the coordinator's registry.
	var statusWrap struct {
		Run ClusterStatus `json:"run"`
	}
	if err := json.Unmarshal(httpGetBody(t, base+"/status"), &statusWrap); err != nil {
		t.Fatalf("cluster /status is not valid JSON: %v", err)
	}
	st := statusWrap.Run
	if n := reg.Counter("xlate_cluster_cells_executed_total", "").Load(); n != 24 {
		t.Errorf("cells_executed_total = %d, want 24", n)
	}
	if st.WorkersLive != 3 || len(st.Workers) != 3 {
		t.Errorf("/status workers: live=%d rows=%d, want 3/3", st.WorkersLive, len(st.Workers))
	}
	if st.RingGeneration < 1 {
		t.Errorf("/status ring_generation = %d, want >= 1 after three joins", st.RingGeneration)
	}
	if st.CompletedCells != 24 {
		t.Errorf("/status completed_cells = %d, want 24", st.CompletedCells)
	}

	// (c) Every worker counts its own completions; read at each row's
	// base, they sum to the planned cell count.
	var completed float64
	for _, row := range st.Workers {
		if row.Dead {
			t.Errorf("worker %s reported dead in a chaos-free run", row.ID)
		}
		completed += readCounter(t, string(httpGetBody(t, row.Base+"/metrics")), "xlate_service_jobs_completed_total")
	}
	if completed != 24 {
		t.Errorf("workers' jobs_completed sum to %v, want 24", completed)
	}

	// (b) One merged trace: coordinator spans and reconstructed worker
	// spans of the same cell share a trace id.
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	byTrace := make(map[string]map[string]int) // trace id -> event name -> count
	sc := bufio.NewScanner(bytes.NewReader(traceBuf.Bytes()))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev traceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if ev.TraceID == "" {
			continue
		}
		m := byTrace[ev.TraceID]
		if m == nil {
			m = make(map[string]int)
			byTrace[ev.TraceID] = m
		}
		m[ev.Ev]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(byTrace) != 24 {
		t.Errorf("trace ids = %d, want one per cell (24)", len(byTrace))
	}
	for id, evs := range byTrace {
		for _, name := range []string{"enqueue", "cell", "dispatch", "worker_queue", "worker_exec"} {
			if evs[name] == 0 {
				t.Errorf("trace %s has no %q event — coordinator and worker halves did not merge: %v", id, name, evs)
			}
		}
	}

	// (e) Stage histograms and the load report read back from them.
	for _, stage := range []string{"cell", "dispatch", "worker_queue", "worker_exec"} {
		h := reg.Histogram("xlate_cluster_stage_seconds", "", nil, telemetry.L("stage", stage))
		if h.Count() < 24 {
			t.Errorf("stage %q histogram count = %d, want >= 24", stage, h.Count())
		}
	}
	load := MeasureLoad(reg, suiteWall)
	if load.Cells != 24 {
		t.Errorf("load report cells = %d, want 24", load.Cells)
	}
	if load.CellsPerSec <= 0 {
		t.Errorf("load report cells_per_sec = %v, want > 0", load.CellsPerSec)
	}
	if load.CellLatency.P50 <= 0 || load.CellLatency.P95 < load.CellLatency.P50 || load.CellLatency.P99 < load.CellLatency.P95 {
		t.Errorf("cell latency quantiles not ordered: %+v", load.CellLatency)
	}
}

// readCounter returns the value of an unlabeled counter in a
// Prometheus text exposition.
func readCounter(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("counter line %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("no %s in the exposition", name)
	return 0
}

// A coordinator's /status is built from its own state: with zero live
// workers it is empty, and a registered worker that accepts TCP but
// never answers does not delay it, because it asks no worker anything.
func TestStatusAsksNoWorker(t *testing.T) {
	coord, err := NewCoordinator(Config{Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.End()

	st := coord.Status()
	if st.WorkersLive != 0 || len(st.Workers) != 0 {
		t.Errorf("workerless status = %+v", st)
	}

	// A listener whose accepted connections are never read: any HTTP
	// request to it blocks until its own timeout.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		var conns []net.Conn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, conn)
		}
	}()
	coord.AddWorker("mute", "http://"+ln.Addr().String())

	start := time.Now()
	st = coord.Status()
	if took := time.Since(start); took > 200*time.Millisecond {
		t.Errorf("Status took %v with a mute worker registered, want < 200ms", took)
	}
	if st.WorkersLive != 1 || len(st.Workers) != 1 || st.Workers[0].ID != "mute" {
		t.Errorf("status with one mute worker = %+v", st)
	}
}
