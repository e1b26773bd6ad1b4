package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xlate/internal/exper"
	"xlate/internal/harness"
	"xlate/internal/service"
	"xlate/internal/service/client"
	"xlate/internal/telemetry"
	"xlate/internal/tracec"
)

// ErrCoordinatorDown is the cause a suite's context is cancelled with
// when the chaos injector kills the coordinator mid-run. Soak suites
// classify on it: wait for the takeover coordinator, then re-run — the
// journal guarantees the re-run resumes instead of restarting.
var ErrCoordinatorDown = errors.New("cluster: coordinator down")

// workerExecutors is each dev worker daemon's job-executor count.
const workerExecutors = 2

// DevConfig parameterizes StartDev, and through SoakConfig RunSoak.
type DevConfig struct {
	// Workers is the number of in-process worker daemons (default 3).
	Workers int
	// CellWorkers is the coordinator's dispatch fan-out (default 8).
	CellWorkers int
	// HeartbeatTimeout / HeartbeatEvery tune the health protocol
	// (defaults 2s / timeout÷4 — fast enough that a killed worker is
	// declared dead within a dev run).
	HeartbeatTimeout time.Duration
	HeartbeatEvery   time.Duration
	// Retry is the coordinator→worker transient backoff.
	Retry client.Backoff
	// Options is the base experiment configuration.
	Options exper.Options
	// Journal is the coordinator's crash journal, reopened by every
	// coordinator generation ("" disables, which also disables
	// RestartCoordinator's resume guarantee).
	Journal string
	// TraceDir, when set, enables the trace subsystem (DESIGN.md §15):
	// the coordinator serves a segment store rooted at TraceDir/coord —
	// ingestion plus content-hash fetch on the control plane — and each
	// worker daemon holds its own store at TraceDir/w<i> with the
	// coordinator as its fetch upstream, so a dispatched trace-backed
	// cell pulls its segment on first touch and replays locally after.
	TraceDir string
	// Chaos is the deterministic fault plan (see ParseChaos).
	Chaos []Directive
	// Registry receives coordinator+harness metrics (nil = private).
	// Every coordinator generation shares it, so counters accumulate
	// across takeovers — the property the no-double-execution
	// assertions rely on.
	Registry *telemetry.Registry
	// Tracer, when set, is handed to every coordinator generation: the
	// distributed cell trace (Config.Tracer) survives takeovers on the
	// same output. Workers deliberately get no tracer of their own —
	// their spans reach the trace through the coordinator's
	// reconstruction, which keeps the merged trace on one clock.
	Tracer *telemetry.Tracer
	// Logf receives cluster log lines (nil = silent).
	Logf func(format string, args ...any)
}

// DevCluster is the single-binary loopback cluster behind
// `eeatd -cluster N`: one coordinator plus N in-process worker daemons,
// each a real service.Server behind a real TCP listener, joined over
// the real control-plane HTTP — so CI exercises dispatch, heartbeats,
// death, requeue, and coordinator takeover through the same code paths
// a multi-host deployment uses, without any infrastructure.
type DevCluster struct {
	cfg             DevConfig
	baseCtx         context.Context // StartDev's ctx; every generation and worker context derives from it
	coordAddr       string          // pinned TCP address, reused across coordinator generations
	coordBase       string
	workers         []*devWorker
	newWorkerClient func(id, base string) *client.Client
	coordTraces     *tracec.Executor // shared by every coordinator generation
	onJournalAppend func(cells int)  // the killcoord trigger, nil without one

	mu        sync.Mutex
	coord     *Coordinator
	coordSrv  *http.Server
	coordDown bool
	genCtx    context.Context
	genCancel context.CancelCauseFunc

	coordKilled atomic.Bool // killcoord fired (exactly once per run)
	restarts    *telemetry.Counter
}

type devWorker struct {
	id   string
	addr string
	svc  *service.Server
	srv  *http.Server

	hbCancel context.CancelCauseFunc
	killed   atomic.Bool
}

// StartDev boots the dev cluster and blocks until every worker has
// joined the ring. Callers must Close it. ctx is the cluster's root:
// every coordinator-generation context and worker heartbeat loop
// derives from it, so cancelling it (Ctrl-C in eeatd) reaches every
// goroutine the cluster spawns.
func StartDev(ctx context.Context, cfg DevConfig) (*DevCluster, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 2 * time.Second
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = cfg.HeartbeatTimeout / 4
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	for _, d := range cfg.Chaos {
		if d.Kind != kindKillCoord && d.Worker >= cfg.Workers {
			return nil, fmt.Errorf("%w: worker index %d with only %d workers", errBadChaos, d.Worker, cfg.Workers)
		}
	}

	dev := &DevCluster{
		cfg:     cfg,
		baseCtx: ctx,
		restarts: cfg.Registry.Counter("xlate_cluster_coordinator_restarts_total",
			"coordinator generations started after a kill (takeover-resumes)"),
	}

	// One chaos transport per worker index, created up front and reused
	// across rejoins AND coordinator generations, so the RPC ordinals
	// directives fire on are counted over the whole run, not per client.
	transports := make([]*chaosTransport, cfg.Workers)
	for i := range transports {
		transports[i] = newChaosTransport(i, nil, cfg.Chaos, dev.killByIndex)
	}

	// killcoord rides the journal's cell count — the one clock that
	// survives the kill. The trigger fires exactly once per run: after
	// the restart the replayed count is already past the threshold, and
	// re-firing would kill every takeover generation forever.
	var killCoordAt uint64
	for _, d := range cfg.Chaos {
		if d.Kind == kindKillCoord {
			killCoordAt = d.AtRPC
		}
	}
	if killCoordAt > 0 {
		dev.onJournalAppend = func(cells int) {
			if uint64(cells) >= killCoordAt && dev.coordKilled.CompareAndSwap(false, true) {
				dev.cfg.Logf("chaos: journal reached %d cells; killing coordinator", cells)
				go dev.KillCoordinator()
			}
		}
	}

	if cfg.TraceDir != "" {
		// One store (and one in-memory LRU) shared across coordinator
		// generations: segments are cache entries on disk, so a takeover
		// coordinator serves everything its predecessor ingested.
		st, err := tracec.OpenStore(filepath.Join(cfg.TraceDir, "coord"), 0, 0)
		if err != nil {
			return nil, err
		}
		dev.coordTraces = &tracec.Executor{Store: st, Logf: cfg.Logf}
	}

	coordLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: coordinator listener: %w", err)
	}
	dev.coordAddr = coordLn.Addr().String()
	dev.coordBase = "http://" + dev.coordAddr
	dev.newWorkerClient = func(id, base string) *client.Client {
		cl := client.New(base)
		cl.Retry = cfg.Retry
		if i, err := workerIndex(id); err == nil && i < len(transports) {
			cl.HTTP = &http.Client{Transport: transports[i]}
		}
		return cl
	}

	if err := dev.startCoordinator(coordLn); err != nil {
		return nil, err
	}

	for i := 0; i < cfg.Workers; i++ {
		w, err := dev.startWorker(i)
		if err != nil {
			dev.Close()
			return nil, err
		}
		dev.workers = append(dev.workers, w)
	}
	return dev, nil
}

func workerIndex(id string) (int, error) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "w"))
	if err != nil {
		return 0, fmt.Errorf("cluster: worker id %q is not w<index>: %w", id, err)
	}
	return n, nil
}

// startCoordinator builds a coordinator generation and serves its
// control plane on ln. Called at StartDev and by RestartCoordinator.
func (d *DevCluster) startCoordinator(ln net.Listener) error {
	coord, err := NewCoordinator(Config{
		CellWorkers:      d.cfg.CellWorkers,
		HeartbeatTimeout: d.cfg.HeartbeatTimeout,
		Retry:            d.cfg.Retry,
		Options:          d.cfg.Options,
		Journal:          d.cfg.Journal,
		OnJournalAppend:  d.onJournalAppend,
		Registry:         d.cfg.Registry,
		Tracer:           d.cfg.Tracer,
		Traces:           d.coordTraces,
		Logf:             d.cfg.Logf,
		NewWorkerClient:  d.newWorkerClient,
	})
	if err != nil {
		ln.Close()
		return err
	}
	srv := service.NewHTTPServer(coord.Handler())
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	// The generation context hangs off the cluster root: a killed
	// coordinator cancels it with ErrCoordinatorDown, and a cancelled
	// root (operator shutdown) reaches every suite the same way.
	genCtx, genCancel := context.WithCancelCause(d.baseCtx)
	d.mu.Lock()
	d.coord, d.coordSrv = coord, srv
	d.genCtx, d.genCancel = genCtx, genCancel
	d.coordDown = false
	d.mu.Unlock()
	return nil
}

func (d *DevCluster) startWorker(i int) (*devWorker, error) {
	id := "w" + strconv.Itoa(i)
	logf := func(f string, args ...any) { d.cfg.Logf(id+": "+f, args...) }
	scfg := service.Config{
		Workers:  workerExecutors,
		Registry: telemetry.NewRegistry(),
		Logf:     logf,
	}
	if d.cfg.TraceDir != "" {
		ws, err := tracec.OpenStore(filepath.Join(d.cfg.TraceDir, id), 0, 0)
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %s: %w", id, err)
		}
		scfg.TraceStore = ws
		scfg.TraceUpstream = d.coordBase
	}
	svc, err := service.New(scfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %s: %w", id, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("cluster: worker %s listener: %w", id, err)
	}
	w := &devWorker{
		id:   id,
		addr: "http://" + ln.Addr().String(),
		svc:  svc,
		srv:  service.NewHTTPServer(svc.Handler()),
	}
	go w.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown

	// Join synchronously so the suite never starts against a ring that
	// is still filling, then keep the heartbeat loop running.
	joinCtx, cancel := context.WithTimeout(d.baseCtx, 5*time.Second)
	err = postControl(joinCtx, nil, d.coordBase, "join", joinRequest{ID: id, Addr: w.addr})
	cancel()
	if err != nil {
		w.srv.Close()
		svc.Close()
		return nil, fmt.Errorf("cluster: worker %s join: %w", id, err)
	}
	hbCtx, hbCancel := context.WithCancelCause(d.baseCtx)
	w.hbCancel = hbCancel
	hb := HeartbeatSender{
		Coord: d.coordBase, ID: id, Addr: w.addr,
		Every: d.cfg.HeartbeatEvery, Retry: d.cfg.Retry, Logf: logf,
	}
	go hb.Run(hbCtx)
	return w, nil
}

// KillWorker simulates a worker crash: heartbeats stop, the listener
// closes (in-flight connections are severed, like a dead process), and
// the worker's service shuts down. Idempotent.
func (d *DevCluster) KillWorker(i int) {
	if i < 0 || i >= len(d.workers) {
		return
	}
	w := d.workers[i]
	if !w.killed.CompareAndSwap(false, true) {
		return
	}
	d.cfg.Logf("chaos: killing worker %s", w.id)
	w.hbCancel(ErrCrashed)
	w.srv.Close() //nolint:errcheck // severing connections is the point
	w.svc.Close()
}

// StopWorker shuts a worker down gracefully, the way a SIGTERM'd
// worker process exits: a synchronous leave (so the coordinator
// requeues its cells now, not at the heartbeat timeout), then a drain
// of in-flight cells, then the listener closes. Idempotent with
// KillWorker.
func (d *DevCluster) StopWorker(ctx context.Context, i int) error {
	if i < 0 || i >= len(d.workers) {
		return nil
	}
	w := d.workers[i]
	if !w.killed.CompareAndSwap(false, true) {
		return nil
	}
	d.cfg.Logf("stopping worker %s gracefully", w.id)
	w.hbCancel(ErrCrashed) // the sender's goodbye is redundant with ours
	err := Leave(ctx, d.coordBase, w.id)
	if derr := w.svc.Drain(ctx); derr != nil && err == nil {
		err = fmt.Errorf("cluster: worker %s drain: %w", w.id, derr)
	}
	w.srv.Close() //nolint:errcheck // shutting down
	w.svc.Close()
	return err
}

func (d *DevCluster) killByIndex(i int) {
	if i == coordinatorIndex {
		d.KillCoordinator()
		return
	}
	d.KillWorker(i)
}

// KillCoordinator simulates a coordinator crash: its listener closes
// severing every control and dispatch connection, the journal handle
// closes, and every suite running through it is cancelled with
// ErrCoordinatorDown. Workers keep executing cells already admitted —
// their daemon contexts outlive the coordinator, which is what the
// cache federation harvests after the restart. Idempotent.
func (d *DevCluster) KillCoordinator() {
	d.mu.Lock()
	if d.coordDown {
		d.mu.Unlock()
		return
	}
	d.coordDown = true
	coord, srv, cancel := d.coord, d.coordSrv, d.genCancel
	d.mu.Unlock()
	d.cfg.Logf("chaos: killing coordinator")
	srv.Close() //nolint:errcheck // severing connections is the point
	cancel(ErrCoordinatorDown)
	coord.End()
}

// RestartCoordinator starts the takeover coordinator generation on the
// same address: it replays the journal, re-adds the last known live
// workers, and serves the control plane again — the workers' heartbeat
// loops rejoin on their own within a beat (404 → join). No-op while
// the coordinator is up. The rebind retry loop waits on ctx, so a
// supervisor that gives up (operator shutdown mid-takeover) is not
// held hostage by a lingering port.
func (d *DevCluster) RestartCoordinator(ctx context.Context) error {
	d.mu.Lock()
	down := d.coordDown
	d.mu.Unlock()
	if !down {
		return nil
	}
	var ln net.Listener
	var err error
	// The old listener's port lingers briefly on some platforms; the
	// address must be stable so workers and clients need no rediscovery.
	for attempt := 0; attempt < 50; attempt++ {
		ln, err = net.Listen("tcp", d.coordAddr)
		if err == nil {
			break
		}
		if serr := sleepCtx(ctx, 20*time.Millisecond); serr != nil {
			return fmt.Errorf("cluster: rebinding coordinator address %s: %w", d.coordAddr, serr)
		}
	}
	if err != nil {
		return fmt.Errorf("cluster: rebinding coordinator address %s: %w", d.coordAddr, err)
	}
	if err := d.startCoordinator(ln); err != nil {
		return err
	}
	d.restarts.Inc()
	d.cfg.Logf("coordinator restarted on %s", d.coordAddr)
	return nil
}

// CoordinatorBase returns the coordinator's base URL, stable across
// generations — tests and the load harness hit its /status and
// /v1/cluster/metrics endpoints through it.
func (d *DevCluster) CoordinatorBase() string { return d.coordBase }

// Coordinator returns the current coordinator generation.
func (d *DevCluster) Coordinator() *Coordinator {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.coord
}

// CoordinatorDown reports whether the coordinator is currently killed.
func (d *DevCluster) CoordinatorDown() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.coordDown
}

// WaitCoordinator blocks until a coordinator generation is serving or
// ctx ends.
func (d *DevCluster) WaitCoordinator(ctx context.Context) error {
	for {
		if !d.CoordinatorDown() {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: waiting for coordinator: %w", context.Cause(ctx))
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Run executes experiments across the cluster through the current
// coordinator generation. If that generation is killed mid-run the
// suite is cancelled and Run reports ErrCoordinatorDown; the caller
// re-runs after RestartCoordinator and the journal resumes it.
func (d *DevCluster) Run(ctx context.Context, exps []exper.Experiment) ([]harness.ExperimentResult, error) {
	d.mu.Lock()
	coord, gen := d.coord, d.genCtx
	d.mu.Unlock()
	rctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	stop := context.AfterFunc(gen, func() { cancel(ErrCoordinatorDown) })
	defer stop()
	results, err := coord.RunSuite(rctx, exps)
	if err != nil && errors.Is(context.Cause(rctx), ErrCoordinatorDown) {
		return results, fmt.Errorf("cluster: suite interrupted: %w", ErrCoordinatorDown)
	}
	return results, err
}

// Registry returns the cluster's metrics registry, shared by every
// coordinator generation.
func (d *DevCluster) Registry() *telemetry.Registry { return d.cfg.Registry }

// Close tears the cluster down: workers die (or are already dead), the
// current coordinator generation stops, the journal closes.
func (d *DevCluster) Close() {
	for i := range d.workers {
		d.KillWorker(i)
	}
	d.mu.Lock()
	coord, srv, down := d.coord, d.coordSrv, d.coordDown
	cancel := d.genCancel
	d.mu.Unlock()
	if down {
		return
	}
	if srv != nil {
		srv.Close() //nolint:errcheck // shutting down
	}
	if cancel != nil {
		cancel(ErrCoordinatorDown)
	}
	if coord != nil {
		coord.End()
	}
}
