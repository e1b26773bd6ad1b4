package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xlate/internal/exper"
	"xlate/internal/harness"
	"xlate/internal/obsflags"
	"xlate/internal/service"
	"xlate/internal/service/client"
	"xlate/internal/service/cluster"
	"xlate/internal/telemetry"
	"xlate/internal/tracec"
)

// clusterOpts collects the flags shared by the -cluster, -coordinator,
// and -worker modes.
type clusterOpts struct {
	n          int // -cluster worker count
	addr       string
	exp        string
	instrs     uint64
	scale      float64
	seed       int64
	chaos      string
	metricsOut string
	loadOut    string
	hbTimeout  time.Duration
	hbEvery    time.Duration
	journal    string
	soak       int
	golden     string
	fanout     int
	minWorkers int
	traceStore string // -trace-store: enables the trace subsystem
	ingest     string // dev mode: trace file to ingest and run
	logf       func(string, ...any)
	obs        *obsflags.Flags
}

// startObs opens the observability session for a cluster mode: the
// session's registry receives the cluster metrics, its tracer (if
// -trace-out was given) records the distributed cell trace, and
// -pprof-addr/-cpuprofile/-memprofile profile the whole process — in
// dev mode that one process IS the cluster, so a single pprof endpoint
// covers the coordinator and every worker. status feeds the optional
// -status-addr server's /status.
func (o clusterOpts) startObs(status func() any) (*obsflags.Session, error) {
	return o.obs.Start(status, o.logf)
}

// runSuite is the tail the -cluster and -coordinator modes share: it
// times run, writes the merged report to stdout and the -metrics-out
// and -load-out files, and maps the outcome to an exit code. A fully
// successful run retires its crash journal, mirroring the harness
// checkpoint's clean-run cleanup; any failure keeps it so the next
// start resumes.
func (o clusterOpts) runSuite(reg *telemetry.Registry, run func() ([]harness.ExperimentResult, error), removeJournal func() error) int {
	start := time.Now()
	results, runErr := run()
	wall := time.Since(start)
	failures := cluster.WriteReport(os.Stdout, results)
	writeMetrics(o.metricsOut, reg, o.logf)
	writeLoadReport(o.loadOut, cluster.MeasureLoad(reg, wall), o.logf)
	if runErr != nil {
		o.logf("cluster run: %v", runErr)
		return 1
	}
	if failures > 0 {
		o.logf("cluster run: %d experiments not reproduced", failures)
		return 1
	}
	if err := removeJournal(); err != nil {
		o.logf("%v", err)
	}
	return 0
}

// openTraceStore opens the -trace-store directory, or returns nil when
// none was given (no trace subsystem).
func openTraceStore(dir string) (*tracec.Store, error) {
	if dir == "" {
		return nil, nil
	}
	return tracec.OpenStore(dir, 0, 0)
}

func selectExperiments(spec string) ([]exper.Experiment, error) {
	if spec == "all" {
		return exper.All(), nil
	}
	var exps []exper.Experiment
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		e, ok := exper.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (known: %v)", id, exper.IDs())
		}
		exps = append(exps, e)
	}
	if len(exps) == 0 {
		return nil, fmt.Errorf("no experiments selected")
	}
	return exps, nil
}

// runDevCluster is `eeatd -cluster N`: a loopback cluster of N
// in-process workers runs the selected experiments, the merged report
// goes to stdout, and the optional chaos plan injects deterministic
// network faults — the single-binary harness the cluster smoke builds
// on. With -soak S the same cluster runs S suites at once (runSoak).
func runDevCluster(o clusterOpts) int {
	dirs, err := cluster.ParseChaos(o.chaos)
	if err != nil {
		o.logf("%v", err)
		return 2
	}
	var exps []exper.Experiment
	if o.exp != "" {
		exps, err = selectExperiments(o.exp)
		if err != nil {
			o.logf("%v", err)
			return 2
		}
	}
	if o.ingest != "" && o.traceStore == "" {
		o.logf("-ingest needs -trace-store")
		return 2
	}
	if o.ingest != "" && o.soak > 0 {
		o.logf("-ingest cannot be combined with -soak")
		return 2
	}
	if o.exp == "" && o.ingest == "" {
		o.logf("nothing to run: give -exp, -ingest, or both")
		return 2
	}
	var golden []byte
	if o.soak > 0 && o.golden != "" {
		if golden, err = os.ReadFile(o.golden); err != nil {
			o.logf("golden: %v", err)
			return 2
		}
	}
	var dev *cluster.DevCluster
	sess, err := o.startObs(func() any {
		if dev != nil {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			return dev.Coordinator().Status(sctx)
		}
		return nil
	})
	if err != nil {
		o.logf("%v", err)
		return 2
	}
	defer sess.Close() //nolint:errcheck // exit path; close errors already logged
	// The signal context is the cluster's root: Ctrl-C must reach the
	// worker heartbeat loops and coordinator generations, not just the
	// suite — so it exists before StartDev, not after.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := cluster.DevConfig{
		Workers:          o.n,
		CellWorkers:      o.fanout,
		HeartbeatTimeout: o.hbTimeout,
		HeartbeatEvery:   o.hbEvery,
		Retry:            client.Backoff{Seed: o.seed},
		Options:          exper.Options{Instrs: o.instrs, Scale: o.scale, Seed: o.seed},
		Journal:          o.journal,
		Chaos:            dirs,
		TraceDir:         o.traceStore,
		Registry:         sess.Registry,
		Tracer:           sess.Tracer,
		Logf:             o.logf,
	}
	if o.soak > 0 {
		return runSoak(ctx, o, cluster.SoakConfig{
			DevConfig: cfg, Suites: o.soak, Experiments: exps, Golden: golden,
		})
	}
	dev, err = cluster.StartDev(ctx, cfg)
	if err != nil {
		o.logf("%v", err)
		return 2
	}
	defer dev.Close()

	if o.ingest != "" {
		// The external-trace smoke path end to end: the stream enters the
		// coordinator over the same HTTP endpoint any client would use,
		// becomes a first-class workload, and its cells dispatch across
		// the ring like any model cell (workers pull the segment by
		// content hash).
		info, err := ingestTrace(ctx, dev.CoordinatorBase(), o.ingest, o.logf)
		if err != nil {
			o.logf("%v", err)
			return 2
		}
		exps = append(exps, exper.TraceExperiment(info.Key))
	}

	return o.runSuite(sess.Registry,
		func() ([]harness.ExperimentResult, error) { return dev.Run(ctx, exps) },
		func() error { return dev.Coordinator().RemoveJournal() })
}

// runSoak is `eeatd -cluster N -soak S`: S concurrent identical suites
// through one coordinator under the chaos plan (which may kill the
// coordinator itself — killcoord:N needs -journal). Suite 0's report
// goes to stdout; the exit code reflects the soak invariants: every
// suite byte-identical to the golden, every cell executed exactly once.
func runSoak(ctx context.Context, o clusterOpts, cfg cluster.SoakConfig) int {
	res, err := cluster.RunSoak(ctx, cfg)
	os.Stdout.WriteString(res.Report) //nolint:errcheck // best-effort report
	writeMetrics(o.metricsOut, cfg.Registry, o.logf)
	writeLoadReport(o.loadOut, res.Load, o.logf)
	o.logf("soak: %d suites, %d mismatches, %d coordinator restarts, %d cells executed (%d unique, %d federated, %d requeues)",
		res.Suites, res.Mismatches, res.Restarts, res.CellsExecuted, res.UniqueCells, res.CellsFederated, res.Requeues)
	o.logf("load: %.2f cells/sec over %.1fs; cell latency p50 %.3fs p95 %.3fs p99 %.3fs",
		res.Load.CellsPerSec, res.Load.WallSeconds,
		res.Load.CellLatency.P50, res.Load.CellLatency.P95, res.Load.CellLatency.P99)
	if err != nil {
		o.logf("soak: %v", err)
		return 1
	}
	return 0
}

// runCoordinator is `eeatd -coordinator`: serve the cluster control
// plane on -addr, wait for -min-workers workers to join, run the
// selected experiments across them, and print the merged report. With
// -exp "" it serves the control plane until a signal instead.
func runCoordinator(o clusterOpts) int {
	var coord *cluster.Coordinator
	sess, err := o.startObs(func() any {
		if coord != nil {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			return coord.Status(sctx)
		}
		return nil
	})
	if err != nil {
		o.logf("%v", err)
		return 2
	}
	defer sess.Close() //nolint:errcheck // exit path; close errors already logged
	store, err := openTraceStore(o.traceStore)
	if err != nil {
		o.logf("%v", err)
		return 2
	}
	coord, err = cluster.NewCoordinator(cluster.Config{
		CellWorkers:      o.fanout,
		HeartbeatTimeout: o.hbTimeout,
		Retry:            client.Backoff{Seed: o.seed},
		Options:          exper.Options{Instrs: o.instrs, Scale: o.scale, Seed: o.seed},
		Journal:          o.journal,
		Traces:           &tracec.Executor{Store: store, Logf: o.logf},
		Registry:         sess.Registry,
		Tracer:           sess.Tracer,
		Logf:             o.logf,
	})
	if err != nil {
		o.logf("%v", err)
		return 2
	}
	defer coord.End()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		o.logf("%v", err)
		return 2
	}
	srv := service.NewHTTPServer(coord.Handler())
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	defer srv.Close()
	o.logf("coordinator on http://%s (POST /v1/cluster/join; /status, /metrics, /v1/cluster/metrics)", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if o.exp == "" {
		<-ctx.Done()
		o.logf("signal: coordinator stopping")
		return 0
	}
	exps, err := selectExperiments(o.exp)
	if err != nil {
		o.logf("%v", err)
		return 2
	}
	o.logf("waiting for %d workers", o.minWorkers)
	for coord.LiveWorkers() < o.minWorkers {
		select {
		case <-ctx.Done():
			o.logf("signal while waiting for workers")
			return 1
		case <-time.After(200 * time.Millisecond):
		}
	}
	return o.runSuite(sess.Registry,
		func() ([]harness.ExperimentResult, error) { return coord.RunSuite(ctx, exps) },
		coord.RemoveJournal)
}

// ingestTrace POSTs a recorded trace file (XLTRACE1 records or an
// already-compiled XLSEGv1 segment) to the coordinator's ingestion
// endpoint — gzip-compressed in transit, the way an external client
// would ship one — and returns the registered segment's identity.
func ingestTrace(ctx context.Context, coordBase, path string, logf func(string, ...any)) (tracec.TraceInfo, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return tracec.TraceInfo{}, err
	}
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(raw); err != nil {
		return tracec.TraceInfo{}, fmt.Errorf("compressing %s: %w", path, err)
	}
	if err := gz.Close(); err != nil {
		return tracec.TraceInfo{}, fmt.Errorf("compressing %s: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, coordBase+"/v1/traces", &buf)
	if err != nil {
		return tracec.TraceInfo{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return tracec.TraceInfo{}, fmt.Errorf("ingesting %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return tracec.TraceInfo{}, fmt.Errorf("ingesting %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusCreated {
		return tracec.TraceInfo{}, fmt.Errorf("ingesting %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	var info tracec.TraceInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return tracec.TraceInfo{}, fmt.Errorf("ingesting %s: decoding response: %w", path, err)
	}
	logf("ingested %s → workload %s (%d refs, %d instrs, %d bytes)",
		path, info.Workload, info.Refs, info.Instrs, info.Bytes)
	return info, nil
}

// writeLoadReport renders the measured load report as JSON ("" skips).
func writeLoadReport(path string, load cluster.LoadReport, logf func(string, ...any)) {
	if path == "" {
		return
	}
	b, err := json.MarshalIndent(load, "", "  ")
	if err != nil {
		logf("load-out: %v", err)
		return
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		logf("load-out: %v", err)
		return
	}
	logf("load report written to %s", path)
}

func writeMetrics(path string, reg *telemetry.Registry, logf func(string, ...any)) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		logf("metrics-out: %v", err)
		return
	}
	defer f.Close()
	if err := reg.WritePrometheus(f); err != nil {
		logf("metrics-out: %v", err)
	}
}
