package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"xlate/internal/service/client"
	"xlate/internal/telemetry"
)

// statusProbeTimeout bounds each per-worker probe (the /status GET and
// the /metrics scrape). A worker that cannot answer in this window is
// reported degraded, not waited for.
const statusProbeTimeout = 2 * time.Second

// WorkerStatus is one worker row of the cluster status: the
// coordinator-side registry view plus the queue occupancy the worker
// itself reported when probed.
type WorkerStatus struct {
	WorkerInfo
	// QueueDepth and ActiveJobs come from the worker's own /status:
	// jobs admitted but not yet picked up, and jobs tracked by the
	// daemon (queued, running, or terminal within the retention window).
	QueueDepth int `json:"queue_depth"`
	ActiveJobs int `json:"active_jobs"`
	// ProbeError records a failed status probe; the registry half of
	// the row is still valid.
	ProbeError string `json:"probe_error,omitempty"`
}

// ClusterStatus is the coordinator's /status snapshot: ring membership
// and generation, per-worker queue depth, in-flight cells, and the
// counters that tell the crash-recovery story (requeues, federation,
// takeover) — the cluster-state half the daemon-level /status never
// had.
type ClusterStatus struct {
	RingGeneration int  `json:"ring_generation"`
	WorkersLive    int  `json:"workers_live"`
	InFlightCells  int  `json:"in_flight_cells"`
	CompletedCells int  `json:"completed_cells"`
	TookOver       bool `json:"took_over"`

	CellsExecuted    uint64 `json:"cells_executed"`
	CellsFederated   uint64 `json:"cells_federated"`
	Requeues         uint64 `json:"requeues"`
	FederationProbes uint64 `json:"federation_probes"`
	WorkersDead      uint64 `json:"workers_dead"`

	Workers []WorkerStatus `json:"workers"`
}

// workerProbe pairs a worker's registry snapshot with its client so
// probes run outside the coordinator lock.
type workerProbe struct {
	info WorkerInfo
	base string
	cl   *client.Client
}

// probeTargets snapshots every known worker under the lock: live ones
// first (ring order), dead ones after, matching Workers().
func (c *Coordinator) probeTargets() []workerProbe {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]workerProbe, 0, len(c.workers))
	add := func(w *worker) {
		out = append(out, workerProbe{info: c.infoLocked(w), base: w.base, cl: w.cl})
	}
	for _, id := range c.ring.Members() {
		if w, ok := c.workers[id]; ok {
			add(w)
		}
	}
	for _, w := range c.workers {
		if w.dead {
			add(w)
		}
	}
	return out
}

// Status builds the cluster status snapshot, probing each live worker's
// /status (bounded by statusProbeTimeout each) for queue occupancy.
func (c *Coordinator) Status(ctx context.Context) ClusterStatus {
	c.cmu.Lock()
	completed := len(c.completed)
	c.cmu.Unlock()
	st := ClusterStatus{
		RingGeneration: c.RingGeneration(),
		WorkersLive:    c.LiveWorkers(),
		InFlightCells:  c.InFlightCells(),
		CompletedCells: completed,
		TookOver:       c.tookOver,

		CellsExecuted:    c.m.cellsExecuted.Load(),
		CellsFederated:   c.m.cellsFederated.Load(),
		Requeues:         c.m.requeues.Load(),
		FederationProbes: c.m.fedProbes.Load(),
		WorkersDead:      c.m.workersDead.Load(),
	}
	for _, p := range c.probeTargets() {
		row := WorkerStatus{WorkerInfo: p.info}
		if !p.info.Dead {
			pctx, cancel := context.WithTimeout(ctx, statusProbeTimeout)
			snap, err := p.cl.Status(pctx)
			cancel()
			if err != nil {
				row.ProbeError = err.Error()
			} else {
				row.QueueDepth = snap.QueueDepth
				row.ActiveJobs = len(snap.Jobs)
			}
		}
		st.Workers = append(st.Workers, row)
	}
	return st
}

// FederatedMetrics scrapes every live worker's /metrics over HTTP and
// writes the merged Prometheus exposition (telemetry.FederateMetrics):
// summed counters and gauges, element-wise-merged histograms, plus
// per-worker labeled series. Workers that fail to answer within the
// probe timeout are skipped and noted as comment lines at the top, so
// a flaky worker degrades the exposition instead of failing it.
func (c *Coordinator) FederatedMetrics(ctx context.Context, w io.Writer) error {
	var targets []workerProbe
	for _, p := range c.probeTargets() {
		if !p.info.Dead {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].info.ID < targets[j].info.ID })

	var sources []telemetry.ScrapedExposition
	for _, t := range targets {
		body, err := scrapeMetrics(ctx, t.base)
		if err != nil {
			if _, werr := fmt.Fprintf(w, "# federation: worker %s scrape failed: %v\n", t.info.ID, err); werr != nil {
				return werr
			}
			c.cfg.Logf("metrics federation: worker %s: %v", t.info.ID, err)
			continue
		}
		sources = append(sources, telemetry.ScrapedExposition{Worker: t.info.ID, Text: body})
	}
	return telemetry.FederateMetrics(w, sources)
}

// scrapeMetrics fetches one worker's /metrics exposition.
func scrapeMetrics(ctx context.Context, base string) ([]byte, error) {
	sctx, cancel := context.WithTimeout(ctx, statusProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
