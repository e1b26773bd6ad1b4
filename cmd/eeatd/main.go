// Command eeatd is the long-running simulation service: an HTTP/JSON
// daemon that accepts simulation jobs (one cell, or a whole paper
// artifact), runs them on a bounded worker pool, and answers repeated
// queries from a content-addressed result cache keyed by the canonical
// harness cell key — a cache hit is byte-identical to a fresh run.
//
// Usage:
//
//	eeatd                                  # serve on localhost:8080
//	eeatd -addr :9000 -workers 4 -queue 128
//	eeatd -cache-entries 512 -cache-ttl 2h -max-instrs 100000000
//	eeatd -spool /var/lib/eeatd            # drained jobs resume from here
//
// Submit and fetch:
//
//	curl -s localhost:8080/v1/jobs -d '{"workload":"mcf","config":"RMM_Lite","instrs":2000000}'
//	curl -s 'localhost:8080/v1/jobs?wait=60s' -d '{"experiment":"fig2","instrs":2000000}'
//	curl -s localhost:8080/v1/results/<key>
//	curl -s localhost:8080/metrics | grep xlate_service
//
// SIGTERM/SIGINT drains gracefully: admission stops (503), in-flight
// jobs finish within -drain-timeout, and past it they are cancelled
// with their experiment checkpoints preserved in the spool. A second
// signal forces immediate shutdown.
//
// Cluster mode (DESIGN.md §11) shards experiment cells across worker
// daemons by the canonical harness cell key:
//
//	eeatd -cluster 3 -exp fig2 -instrs 400000 -scale 0.1 -seed 7
//	                                       # loopback dev cluster, report on stdout
//	eeatd -cluster 3 -exp fig2 -chaos kill:1@10
//	                                       # same, killing worker 1 mid-run
//	eeatd -coordinator -addr :7000 -exp fig2 -min-workers 2 -journal coord.journal
//	                                       # a restarted coordinator replays the journal and resumes
//	eeatd -addr :9001 -worker http://coord:7000
//
// The coordinator's -journal is its only durable state (DESIGN.md §12):
// every completed cell and membership change is appended and fsync'd
// as it commits, and a coordinator started on an existing journal
// resumes from it without a flag.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"xlate/internal/obsflags"
	"xlate/internal/service"
	"xlate/internal/service/cluster"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr    = flag.String("addr", "localhost:8080", "listen address for the job API (and /metrics, /status)")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent job executors")
		cellWk  = flag.Int("cell-workers", 1, "harness workers per experiment job")
		queue   = flag.Int("queue", 64, "max jobs queued ahead of the workers; beyond it submissions get 429")
		maxIn   = flag.Uint64("max-instrs", 0, "reject jobs with a larger instruction budget (0 = no cap)")
		entries = flag.Int("cache-entries", 256, "result-cache entry bound (LRU beyond it)")
		cacheMB = flag.Int64("cache-mb", 0, "result-cache payload bound in MiB (0 = unlimited)")
		ttl     = flag.Duration("cache-ttl", 0, "result-cache entry lifetime, e.g. 2h (0 = no expiry)")
		spool   = flag.String("spool", "eeatd-spool", "directory for experiment-job checkpoints (empty disables resume)")
		drainT  = flag.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight jobs before cancelling them")

		// Cluster modes (DESIGN.md §11). Exactly one of -cluster,
		// -coordinator, -worker may be used.
		clusterN  = flag.Int("cluster", 0, "dev mode: run N in-process workers on loopback and execute -exp")
		coordMode = flag.Bool("coordinator", false, "serve the cluster control plane on -addr and run -exp across joined workers")
		workerURL = flag.String("worker", "", "coordinator URL to join as a worker (e.g. http://coord:7000)")
		workerID  = flag.String("worker-id", "", "worker id announced to the coordinator (default: the listen address)")
		advertise = flag.String("advertise", "", "URL the coordinator reaches this worker at (default http://<addr>)")
		minWk     = flag.Int("min-workers", 1, "coordinator: workers required before the suite starts")
		exp       = flag.String("exp", "fig2", `cluster/coordinator: experiment ids, comma-separated, or "all" ("" = serve only)`)
		instrs    = flag.Uint64("instrs", 20_000_000, "cluster/coordinator: instruction budget per cell")
		scale     = flag.Float64("scale", 1.0, "cluster/coordinator: workload footprint scale")
		seed      = flag.Int64("seed", 42, "cluster/coordinator: base random seed")
		chaos     = flag.String("chaos", "", `cluster dev mode: deterministic fault plan, e.g. "kill:1@10,drop:0@2,delay:2@1:50ms"`)
		metricOut = flag.String("metrics-out", "", "cluster/coordinator: dump /metrics to this file after the run")
		hbTimeout = flag.Duration("hb-timeout", 5*time.Second, "declare a worker dead after this long without a heartbeat")
		hbEvery   = flag.Duration("hb-every", 0, "worker heartbeat period (default hb-timeout/4)")
		journal   = flag.String("journal", "", "cluster/coordinator: crash journal; a restarted coordinator replays it and resumes automatically (DESIGN.md §12)")
		soakN     = flag.Int("soak", 0, "cluster dev mode: run N concurrent identical suites through one coordinator (chaos soak)")
		golden    = flag.String("golden", "", "soak: report file every suite must match byte-for-byte (default: suites compared to each other)")
		loadOut   = flag.String("load-out", "", "cluster dev mode: write the measured load report (throughput, p50/p95/p99 latency) as JSON to this file")

		traceStore = flag.String("trace-store", "", "segment store directory: enables POST /v1/traces ingestion and trace:<key> workloads (DESIGN.md §15)")
		traceUp    = flag.String("trace-upstream", "", "fetch missing trace segments from this base URL (default: the -worker coordinator)")
		ingest     = flag.String("ingest", "", "cluster dev mode: ingest this trace file over HTTP into the coordinator and run it as an experiment")
	)
	obs := obsflags.Register()
	flag.Parse()

	logf := func(f string, args ...any) { fmt.Fprintf(os.Stderr, "eeatd: "+f+"\n", args...) }

	if (*clusterN > 0 && *coordMode) || (*clusterN > 0 && *workerURL != "") || (*coordMode && *workerURL != "") {
		logf("-cluster, -coordinator, and -worker are mutually exclusive")
		return 2
	}
	if *clusterN > 0 || *coordMode {
		// The coordinator's dispatch fan-out: -cell-workers when the
		// operator raised it, otherwise wide enough to keep every
		// worker's executors busy.
		width := *clusterN
		if *coordMode && *minWk > width {
			width = *minWk
		}
		fanout := *cellWk
		if fanout <= 1 {
			fanout = 2*width + 2
		}
		o := clusterOpts{
			n: *clusterN, addr: *addr, exp: *exp,
			instrs: *instrs, scale: *scale, seed: *seed,
			chaos: *chaos, metricsOut: *metricOut, loadOut: *loadOut,
			hbTimeout: *hbTimeout, hbEvery: *hbEvery,
			journal: *journal, soak: *soakN, golden: *golden,
			fanout: fanout, minWorkers: *minWk, logf: logf,
			traceStore: *traceStore, ingest: *ingest,
			obs: obs,
		}
		if *clusterN > 0 {
			return runDevCluster(o)
		}
		return runCoordinator(o)
	}

	// The daemon serves /metrics and /status from its own mux — when
	// -status-addr is also given, fold it in rather than opening a
	// second listener for the same registry.
	if obs.StatusAddr != "" {
		logf("-status-addr %s ignored: /metrics and /status are served on %s (one listener, drained together)",
			obs.StatusAddr, *addr)
		obs.StatusAddr = ""
	}

	var svc *service.Server
	sess, err := obs.Start(func() any {
		if svc != nil {
			return svc.Status()
		}
		return nil
	}, logf)
	if err != nil {
		logf("%v", err)
		return 2
	}

	scfg := service.Config{
		Workers:      *workers,
		CellWorkers:  *cellWk,
		MaxQueue:     *queue,
		MaxInstrs:    *maxIn,
		CacheEntries: *entries,
		CacheBytes:   *cacheMB << 20,
		CacheTTL:     *ttl,
		SpoolDir:     *spool,
		Registry:     sess.Registry,
		Logf:         logf,
	}
	if scfg.TraceStore, err = openTraceStore(*traceStore); err != nil {
		logf("%v", err)
		sess.Close() //nolint:errcheck // exiting on the earlier error
		return 2
	}
	// A worker daemon fetches dispatched trace-backed cells' segments
	// from its coordinator unless told otherwise.
	scfg.TraceUpstream = *traceUp
	if scfg.TraceUpstream == "" && *workerURL != "" {
		scfg.TraceUpstream = strings.TrimRight(*workerURL, "/")
	}
	svc, err = service.New(scfg)
	if err != nil {
		logf("%v", err)
		sess.Close() //nolint:errcheck // exiting on the earlier error
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logf("%v", err)
		svc.Close()
		sess.Close() //nolint:errcheck // exiting on the earlier error
		return 2
	}
	// No WriteTimeout on purpose: /v1/jobs/{id}/log streams for the life
	// of a job, and long-poll waits legitimately hold a response open.
	// Slow readers are bounded instead by IdleTimeout between requests,
	// ReadHeaderTimeout on arrival, and the 1 MiB MaxBytesReader the
	// handler applies to every POST body.
	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logf("serving on http://%s (POST /v1/jobs; /metrics, /status, /healthz)", ln.Addr())

	// Worker mode: the daemon additionally joins a coordinator and
	// heartbeats until shutdown. On SIGTERM the leave is synchronous —
	// the coordinator requeues this worker's cells before the drain
	// starts, instead of discovering the departure at the heartbeat
	// timeout.
	hbCancel := context.CancelCauseFunc(func(error) {})
	leave := func() {}
	if *workerURL != "" {
		wid := *workerID
		adv := *advertise
		if adv == "" {
			adv = "http://" + ln.Addr().String()
		}
		if wid == "" {
			wid = ln.Addr().String()
		}
		coordBase := strings.TrimRight(*workerURL, "/")
		var hbCtx context.Context
		hbCtx, hbCancel = context.WithCancelCause(context.Background())
		hb := &cluster.HeartbeatSender{Coord: coordBase, ID: wid, Addr: adv, Every: *hbEvery, Logf: logf}
		if hb.Every <= 0 {
			hb.Every = *hbTimeout / 4
		}
		go hb.Run(hbCtx)
		leave = func() {
			lctx, lcancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer lcancel()
			if err := cluster.Leave(lctx, coordBase, wid); err != nil {
				logf("%v", err)
			}
		}
		logf("worker %s joined coordinator %s (advertising %s)", wid, *workerURL, adv)
	}
	defer hbCancel(nil)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	code := 0
	select {
	case err := <-serveErr:
		logf("serve: %v", err)
		code = 1
	case s := <-sig:
		// Graceful cluster exit: stop heartbeating (silently — the
		// synchronous leave below is the goodbye), deregister, and only
		// then drain, so the coordinator requeues this worker's keyspace
		// while the in-flight cells finish into the local cache.
		hbCancel(cluster.ErrCrashed)
		leave()
		logf("%v: draining (timeout %s; signal again to force)", s, *drainT)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainT)
		go func() {
			<-sig
			logf("second signal: forcing shutdown")
			cancel()
		}()
		if err := svc.Drain(drainCtx); err != nil {
			logf("drain cut short: in-flight jobs cancelled, checkpoints kept in %s", *spool)
		} else {
			logf("drain complete: all jobs finished")
		}
		shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			logf("http shutdown: %v", err)
			code = 1
		}
		cancel2()
		cancel()
	}
	if err := sess.Shutdown(context.Background()); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("%v", err)
		code = 1
	}
	return code
}
