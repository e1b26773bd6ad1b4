// Package cluster is eeatd's scale-out layer (DESIGN.md §11): a
// coordinator that shards experiment cells across N worker daemons by
// the canonical harness cell key and merges their results into reports
// byte-identical to a single-process run.
//
// The design leans entirely on identities the repo already has. Cells
// are content-addressed by harness.JobKey, so the consistent-hash ring
// (ring.go) partitions not just the work but every worker's result
// cache and checkpoint spool: the same cell always lands on the same
// worker while the membership holds, and a resubmitted suite is
// answered from worker caches without recomputation. Execution plugs
// into the harness through Config.Execute — the plan/memo/checkpoint/
// render pipeline is untouched, which is what makes the merged report
// byte-identical by construction rather than by reconciliation.
//
// Robustness model:
//
//   - Workers heartbeat the coordinator; a silent worker is declared
//     dead after HeartbeatTimeout and removed from the ring.
//   - A dispatch that fails with a transient error (connection
//     refused/reset, 5xx — client.ErrUnavailable after its own capped
//     exponential backoff) declares the worker dead and requeues the
//     cell on the next owner in the key's preference list. Requeued
//     cells keep their original seed, so the failover result is the
//     result the dead worker would have produced.
//   - A dispatch that fails deterministically (the job itself failed,
//     or a protocol violation) fails the cell — retrying a
//     deterministic failure elsewhere produces the same failure.
//   - With zero live workers the coordinator executes cells locally:
//     the run degrades to the single-process path instead of hanging.
//   - Completed cells live in the harness memo and, with
//     Config.Journal, the coordinator's crash journal; a worker death
//     never recomputes them.
package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/harness"
	"xlate/internal/service/client"
	"xlate/internal/telemetry"
	"xlate/internal/tracec"
)

// Config parameterizes a Coordinator.
type Config struct {
	// CellWorkers is the number of concurrent cell dispatches
	// (default 8): the fan-out width across the worker fleet.
	CellWorkers int
	// VNodes is the virtual-node count per worker on the ring
	// (default 64).
	VNodes int
	// HeartbeatTimeout declares a worker dead after this long without a
	// heartbeat (default 5s; 0 disables the watchdog — dispatch
	// failures still declare workers dead).
	HeartbeatTimeout time.Duration
	// Retry is the per-RPC transient backoff handed to worker clients
	// built by the default NewWorkerClient.
	Retry client.Backoff
	// NewWorkerClient builds the client for a joining worker (default
	// client.New(base) with Retry). The dev cluster injects
	// chaos-wrapped transports here.
	NewWorkerClient func(id, base string) *client.Client
	// Options is the base experiment configuration for RunSuite.
	Options exper.Options
	// Journal is the coordinator's durable crash journal ("" disables):
	// every completed cell and membership event is fsync'd there as it
	// commits, and a restarted coordinator replays it to resume the
	// suite automatically (DESIGN.md §12). Replay needs no flag — the
	// journal's presence is the signal.
	Journal string
	// FederationTimeout bounds each federated cache probe — the
	// read-through GET /v1/results/{key} against a cell's ring owners
	// (default 2s). Probes are an optimization; a slow one must not
	// stall dispatch.
	FederationTimeout time.Duration
	// OnJournalAppend, when set, is called after every journaled cell
	// with the journal's total cell count, outside all coordinator
	// locks. The chaos soak uses it as a deterministic count trigger
	// for killing the coordinator mid-suite.
	OnJournalAppend func(cells int)
	// Registry receives cluster metrics (required for /metrics; nil
	// creates a private registry).
	Registry *telemetry.Registry
	// Traces is the coordinator's executor for the local-fallback path
	// (default: the zero tracec.Executor, which runs model cells live).
	// Its segment store, when set, backs the /v1/traces ingestion+fetch
	// endpoints on the control plane: workers fetch dispatched
	// trace-backed cells' segments from here by content hash. Required
	// to run trace-backed cells; model suites run without one.
	Traces *tracec.Executor
	// Tracer, when set, records the distributed cell trace: one track
	// per cell with coordinator-side spans (cell, dispatch, federation
	// probe, local fallback) plus worker-side spans (queue wait,
	// execution) reconstructed from the timing every terminal JobStatus
	// reports — one merged Chrome/JSONL trace per suite, all spans of a
	// cell sharing its trace id. Nil disables tracing; the per-stage
	// histograms are recorded either way.
	Tracer *telemetry.Tracer
	// Logf receives coordinator log lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.CellWorkers <= 0 {
		c.CellWorkers = 8
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = 5 * time.Second
	}
	if c.FederationTimeout <= 0 {
		c.FederationTimeout = 2 * time.Second
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Traces == nil {
		c.Traces = &tracec.Executor{}
	}
	if c.NewWorkerClient == nil {
		retry := c.Retry
		c.NewWorkerClient = func(id, base string) *client.Client {
			cl := client.New(base)
			cl.Retry = retry
			return cl
		}
	}
	return c
}

// worker is one registered worker daemon.
type worker struct {
	id   string
	base string
	cl   *client.Client

	// deadCh closes when the worker is declared dead; dispatches
	// in flight against it select on this to unblock long polls.
	deadCh chan struct{}

	cells *telemetry.Counter // dispatches to this worker

	// Guarded by the coordinator lock.
	lastBeat time.Time
	dead     bool
}

// Coordinator owns the ring, the worker registry, and cell dispatch.
type Coordinator struct {
	cfg   Config
	m     *clusterMetrics
	start time.Time // span timestamp base (Config.Tracer)

	mu      sync.Mutex
	ring    *Ring
	workers map[string]*worker
	epoch   int // bumps on every join, for rejoin ids

	// Crash-survivability state (DESIGN.md §12). completed and flight
	// are guarded by cmu; lock order is mu before cmu, never the
	// reverse. tookOver is set once at construction.
	jrnl      *clusterJournal
	tookOver  bool
	cmu       sync.Mutex
	completed map[string]core.Result
	flight    map[string]*cellFlight

	watchStop chan struct{}
	watchDone chan struct{}
}

// NewCoordinator builds a coordinator and starts its heartbeat
// watchdog. Callers must End it. With Config.Journal set, an existing
// journal is replayed first: completed cells are memoized, the last
// known live workers rejoin the ring (the watchdog or a failed
// dispatch prunes any that died with the previous coordinator), and
// the next RunSuite resumes instead of restarting.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:       cfg,
		start:     time.Now(),
		m:         newClusterMetrics(cfg.Registry),
		ring:      NewRing(cfg.VNodes),
		workers:   make(map[string]*worker),
		completed: make(map[string]core.Result),
		flight:    make(map[string]*cellFlight),
		watchStop: make(chan struct{}),
		watchDone: make(chan struct{}),
	}
	if cfg.Journal != "" {
		opt := cfg.Options
		opt.Runner = nil
		opt = opt.WithDefaults()
		jrnl, state, err := openClusterJournal(cfg.Journal, opt, cfg.Logf)
		if err != nil {
			return nil, fmt.Errorf("cluster: coordinator journal: %w", err)
		}
		c.jrnl = jrnl
		for k, v := range state.cells {
			c.completed[k] = v
		}
		rejoined := 0
		for id, ms := range state.members {
			if ms.alive {
				c.addWorker(id, ms.addr, false)
				rejoined++
			}
		}
		if state.events > 0 {
			c.tookOver = true
			c.m.takeovers.Inc()
			cfg.Logf("takeover: journal %s replayed %d completed cells, %d live workers rejoined",
				cfg.Journal, len(state.cells), rejoined)
		}
	}
	go c.watchdog()
	return c, nil
}

// End stops the watchdog and closes the journal, so a successor
// coordinator can reopen it without two handles interleaving appends.
// It does not touch the workers — they are separate processes (or the
// dev cluster's, which owns their shutdown).
func (c *Coordinator) End() {
	c.mu.Lock()
	select {
	case <-c.watchStop:
	default:
		close(c.watchStop)
	}
	c.mu.Unlock()
	<-c.watchDone
	if c.jrnl != nil {
		c.jrnl.close()
	}
}

// RemoveJournal deletes the crash journal after a fully successful
// run, mirroring the harness checkpoint's clean-run cleanup. The
// coordinator must be Ended first; callers that crash before this
// point leave the journal behind on purpose.
func (c *Coordinator) RemoveJournal() error {
	if c.jrnl == nil {
		return nil
	}
	if err := c.jrnl.j.Remove(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// CompletedCells snapshots the coordinator's completed-cell set — the
// journal replay plus everything recorded since. RunSuite preloads the
// harness memo with it; the soak harness sizes its no-double-execution
// assertion by it.
func (c *Coordinator) CompletedCells() map[string]core.Result {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	out := make(map[string]core.Result, len(c.completed))
	for k, v := range c.completed {
		out[k] = v
	}
	return out
}

// TookOver reports whether this coordinator resumed state from a
// predecessor's journal.
func (c *Coordinator) TookOver() bool { return c.tookOver }

// watchdog periodically declares workers dead after HeartbeatTimeout
// without a heartbeat.
func (c *Coordinator) watchdog() {
	defer close(c.watchDone)
	if c.cfg.HeartbeatTimeout <= 0 {
		<-c.watchStop
		return
	}
	every := c.cfg.HeartbeatTimeout / 4
	if every < time.Millisecond {
		every = time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.watchStop:
			return
		case now := <-t.C:
			c.mu.Lock()
			for _, w := range c.workers {
				if !w.dead && now.Sub(w.lastBeat) > c.cfg.HeartbeatTimeout {
					//eeatlint:allow locksafe the death verdict and its journal record must be atomic under mu; membership appends are rare and small
					c.markDeadLocked(w, fmt.Errorf("no heartbeat for %s", now.Sub(w.lastBeat).Round(time.Millisecond)))
				}
			}
			c.mu.Unlock()
		}
	}
}

// AddWorker registers (or re-registers) a worker by id and base URL
// and rebalances the ring. A dead worker rejoining under its old id is
// resurrected with a fresh death channel.
func (c *Coordinator) AddWorker(id, base string) {
	c.addWorker(id, base, true)
}

// addWorker is AddWorker with the membership journaling controllable:
// journal replay re-adds workers without re-journaling their joins.
func (c *Coordinator) addWorker(id, base string, journal bool) {
	cl := c.cfg.NewWorkerClient(id, base)
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[id]; ok && !w.dead {
		w.lastBeat = time.Now()
		return
	}
	w := &worker{
		id: id, base: base, cl: cl,
		deadCh:   make(chan struct{}),
		cells:    c.m.workerCells(id),
		lastBeat: time.Now(),
	}
	c.workers[id] = w
	c.epoch++
	moves := c.ring.Add(id)
	c.m.ringMoves.Add(uint64(moves))
	c.m.workersLive.Set(int64(c.liveLocked()))
	if journal {
		//eeatlint:allow locksafe the join and its journal record must be atomic under mu; membership appends are rare and small
		c.journalMember(evJoin, id, base)
	}
	c.cfg.Logf("worker %s joined at %s (%d live, %d arcs moved)", id, base, c.liveLocked(), moves)
}

// RemoveWorker gracefully deregisters a worker (its leave path). The
// ring rebalances; in-flight dispatches to it are cancelled.
func (c *Coordinator) RemoveWorker(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		return
	}
	if !w.dead {
		w.dead = true
		close(w.deadCh)
	}
	delete(c.workers, id)
	moves := c.ring.Remove(id)
	c.m.ringMoves.Add(uint64(moves))
	c.m.workersLive.Set(int64(c.liveLocked()))
	//eeatlint:allow locksafe the leave and its journal record must be atomic under mu; membership appends are rare and small
	c.journalMember(evLeave, id, "")
	c.cfg.Logf("worker %s left (%d live, %d arcs moved)", id, c.liveLocked(), moves)
}

// journalMember records a membership event in the crash journal. A
// failed append is logged, not fatal: membership is rebuilt by rejoin
// heartbeats anyway; only cell records carry correctness weight.
func (c *Coordinator) journalMember(event, id, addr string) {
	if c.jrnl == nil {
		return
	}
	if err := c.jrnl.appendMember(event, id, addr); err != nil {
		c.cfg.Logf("journal: %v", err)
	}
}

// Heartbeat records a worker's liveness signal. It returns false for
// an unknown or already-dead worker — the worker should rejoin, which
// puts it back on the ring.
func (c *Coordinator) Heartbeat(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok || w.dead {
		return false
	}
	w.lastBeat = time.Now()
	c.m.heartbeats.Inc()
	return true
}

// markDeadLocked declares a worker dead: off the ring, death channel
// closed so in-flight RPCs against it abort, metrics updated. The
// worker record stays in the map (dead) so a late heartbeat gets a
// rejoin signal instead of silently reviving a deregistered id.
func (c *Coordinator) markDeadLocked(w *worker, cause error) {
	if w.dead {
		return
	}
	w.dead = true
	close(w.deadCh)
	moves := c.ring.Remove(w.id)
	c.m.ringMoves.Add(uint64(moves))
	c.m.workersDead.Inc()
	c.m.workersLive.Set(int64(c.liveLocked()))
	c.journalMember(evDead, w.id, "")
	c.cfg.Logf("worker %s declared dead: %v (%d live, %d arcs moved)", w.id, cause, c.liveLocked(), moves)
}

func (c *Coordinator) liveLocked() int {
	n := 0
	for _, w := range c.workers {
		if !w.dead {
			n++
		}
	}
	return n
}

// LiveWorkers returns the number of workers currently considered live.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveLocked()
}

// RingGeneration returns the membership epoch: it bumps on every join,
// so two status snapshots with equal generations saw the same ring.
func (c *Coordinator) RingGeneration() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// InFlightCells returns the number of cells currently being led by
// this coordinator (dispatched, probing, or executing locally).
func (c *Coordinator) InFlightCells() int {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	return len(c.flight)
}

// pick returns the first live worker on key's preference list not in
// tried, or nil when none remains.
func (c *Coordinator) pick(key string, tried map[string]bool) *worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.ring.Owners(key) {
		if tried[id] {
			continue
		}
		if w, ok := c.workers[id]; ok && !w.dead {
			return w
		}
	}
	return nil
}

// WorkerInfo is one row of the cluster status surface.
type WorkerInfo struct {
	ID      string  `json:"id"`
	Base    string  `json:"base"`
	Dead    bool    `json:"dead"`
	BeatAgo float64 `json:"last_heartbeat_seconds_ago"`
	Cells   uint64  `json:"cells_dispatched"`
}

// Workers snapshots the registry for the status endpoint and tests.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, id := range c.ring.Members() {
		if w, ok := c.workers[id]; ok {
			out = append(out, c.infoLocked(w))
		}
	}
	// Dead workers are off the ring but still known; list them after.
	for _, w := range c.workers {
		if w.dead {
			out = append(out, c.infoLocked(w))
		}
	}
	return out
}

func (c *Coordinator) infoLocked(w *worker) WorkerInfo {
	return WorkerInfo{
		ID: w.id, Base: w.base, Dead: w.dead,
		BeatAgo: time.Since(w.lastBeat).Seconds(),
		Cells:   w.cells.Load(),
	}
}

// RunSuite executes experiments through the harness with cells
// dispatched across the cluster. The harness does the planning,
// deduplication, and rendering; the cluster only
// replaces the per-cell executor, so the output is byte-identical to a
// single-process run over the same options.
// The completed-cell set from the journal replay (and any earlier
// suite through this coordinator) preloads the harness memo, so a
// takeover-resume plans the full suite but executes only the gap.
func (c *Coordinator) RunSuite(ctx context.Context, exps []exper.Experiment) ([]harness.ExperimentResult, error) {
	hcfg := harness.Config{
		Workers:  c.cfg.CellWorkers,
		Options:  c.cfg.Options,
		Preload:  c.CompletedCells(),
		Registry: c.cfg.Registry,
		Logf:     c.cfg.Logf,
		Execute:  c.executeCell,
	}
	return harness.New(hcfg).Run(ctx, exps)
}
