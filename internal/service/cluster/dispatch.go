package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/harness"
	"xlate/internal/service"
	"xlate/internal/service/client"
	"xlate/internal/telemetry"
)

// cellFlight is one in-flight cell execution shared by every suite
// that wants the same key: the coordinator-level singleflight that
// keeps the global cells-executed counter equal to the number of
// unique cells even when the soak harness drives many concurrent
// suites through one coordinator.
type cellFlight struct {
	done chan struct{}
	res  core.Result
	err  error
}

// executeCell is the harness Config.Execute hook: answer one cell from
// the completed set, an identical in-flight execution, a federated
// cache, a worker dispatch, or local fallback — in that order.
func (c *Coordinator) executeCell(ctx context.Context, j exper.Job) (core.Result, error) {
	key := harness.JobKey(j)
	for {
		c.cmu.Lock()
		if res, ok := c.completed[key]; ok {
			c.cmu.Unlock()
			c.m.cellsMemo.Inc()
			return res, nil
		}
		if f, ok := c.flight[key]; ok {
			c.cmu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return core.Result{}, fmt.Errorf("cluster: cell %s: %w", shortKey(key), ctx.Err())
			}
			if f.err == nil {
				c.m.cellsDeduped.Inc()
				return f.res, nil
			}
			// The leader failed. If its failure was its own context dying
			// (its suite was cancelled, e.g. by a coordinator kill) and we
			// are still live, take the lead ourselves.
			if (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) && ctx.Err() == nil {
				continue
			}
			return core.Result{}, f.err
		}
		f := &cellFlight{done: make(chan struct{})}
		c.flight[key] = f
		c.cmu.Unlock()

		res, err := c.leadCell(ctx, j, key)
		c.cmu.Lock()
		f.res, f.err = res, err
		delete(c.flight, key)
		c.cmu.Unlock()
		close(f.done)
		return res, err
	}
}

// leadCell executes one cell as the flight leader: federated probe
// first when resuming a predecessor's suite, then dispatch to the ring
// owner, walking the preference list as workers die.
//
// The failure split is the protocol's core invariant: a transient
// failure (worker unreachable after the client's backoff, or killed
// mid-RPC) condemns the *worker* and requeues the cell — with its
// original seed, so the surviving worker computes exactly what the dead
// one would have; a deterministic failure (the simulation itself
// failed, or a protocol violation) condemns the *cell* — rerunning a
// deterministic failure elsewhere just fails again, slower.
//
// The lead is also the unit of observation: the whole call is one
// "cell" stage observation (and, when tracing, one root span on the
// cell's own track), with dispatch / federation / local / worker
// stages nested inside.
func (c *Coordinator) leadCell(ctx context.Context, j exper.Job, key string) (res core.Result, err error) {
	ct := c.traceCell(key)
	cellStart := time.Now()
	c.event(ct, "enqueue")
	defer func() {
		c.m.stageCell.Observe(time.Since(cellStart).Seconds())
		c.spanRange(ct, cellStart, time.Now(), "cell", telemetry.KV{K: "ok", V: err == nil})
	}()
	// After a takeover, a cell missing from the journal may still sit in
	// a worker's content-addressed cache: the old coordinator dispatched
	// it, the worker finished it under its own daemon-scoped context,
	// and only the acknowledgment died. Ask the owners before paying
	// for a re-simulation.
	if c.tookOver {
		if res, ok := c.federatedLookup(ctx, key, ct); ok {
			c.recordCell(key, res)
			return res, nil
		}
	}
	wire := service.EncodeJob(j)
	if ct.active() {
		// The propagated trace context: the worker tags its own spans
		// and its terminal status with this id, which is what lets the
		// merged trace (and the tests) match both sides of the cell.
		wire.TraceID = ct.id
		wire.ParentSpan = ct.span
	}
	tried := make(map[string]bool)
	requeued := false
	for {
		w := c.pick(key, tried)
		if w == nil {
			res, err := c.executeLocal(ctx, j, key, ct)
			if err != nil {
				return core.Result{}, err
			}
			c.recordCell(key, res)
			return res, nil
		}
		tried[w.id] = true
		if requeued {
			c.m.requeues.Inc()
			c.event(ct, "requeue", telemetry.KV{K: "worker", V: w.id})
			c.cfg.Logf("requeueing cell %s onto worker %s", shortKey(key), w.id)
			// A requeued cell's previous owner may have completed it
			// before dying; the new owner (or any surviving owner) may
			// hold it from an earlier membership epoch. Read through the
			// federation before re-simulating.
			if res, ok := c.federatedLookup(ctx, key, ct); ok {
				c.recordCell(key, res)
				return res, nil
			}
		}
		res, err := c.dispatchTo(ctx, w, key, wire, ct)
		if err == nil {
			c.recordCell(key, res)
			return res, nil
		}
		if ctx.Err() != nil {
			return core.Result{}, fmt.Errorf("cluster: cell %s on worker %s: %w", shortKey(key), w.id, ctx.Err())
		}
		if errors.Is(err, client.ErrJobFailed) || errors.Is(err, client.ErrProtocol) {
			return core.Result{}, fmt.Errorf("cluster: cell %s on worker %s: %w", shortKey(key), w.id, err)
		}
		c.workerUnavailable(w, err)
		requeued = true
	}
}

// recordCell commits a completed cell: into the completed set, the
// crash journal (fsync'd before the result is handed to the harness),
// and the no-double-execution counter. The OnJournalAppend hook fires
// outside all locks.
func (c *Coordinator) recordCell(key string, res core.Result) {
	total := 0
	if c.jrnl != nil {
		n, err := c.jrnl.appendCell(key, res)
		if err != nil {
			// Not durable — a successor coordinator will serve this cell
			// from a federated cache or re-execute it, so counting it now
			// would double-count the run. The in-memory publish still
			// happens: flight waiters on this (dying) generation get
			// their result.
			c.cfg.Logf("journal: %v", err)
			c.cmu.Lock()
			c.completed[key] = res
			c.cmu.Unlock()
			return
		}
		total = n
	}
	c.cmu.Lock()
	c.completed[key] = res
	c.cmu.Unlock()
	c.m.cellsExecuted.Inc()
	if hook := c.cfg.OnJournalAppend; hook != nil && total > 0 {
		hook(total)
	}
}

// federatedLookup asks each live ring owner of key, in preference
// order, for a cached result. Only reached when re-execution is the
// alternative (takeover-resume or requeue), so probes are worth their
// round trip.
func (c *Coordinator) federatedLookup(ctx context.Context, key string, ct cellTrace) (core.Result, bool) {
	for _, w := range c.liveOwners(key) {
		if res, ok := c.federatedProbe(ctx, w, key, ct); ok {
			return res, true
		}
		if ctx.Err() != nil {
			return core.Result{}, false
		}
	}
	return core.Result{}, false
}

// liveOwners snapshots the live workers on key's preference list.
func (c *Coordinator) liveOwners(key string) []*worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*worker
	for _, id := range c.ring.Owners(key) {
		if w, ok := c.workers[id]; ok && !w.dead {
			out = append(out, w)
		}
	}
	return out
}

// federatedProbe is one read-through GET /v1/results/{key} against one
// worker's content-addressed cache. The trust rule matches wire-job
// admission (§11): the payload's key — recomputed by the worker from
// the job itself when it cached the cell — must equal the key this
// coordinator computed from its own job; anything else is rejected and
// the cell falls through to execution.
func (c *Coordinator) federatedProbe(ctx context.Context, w *worker, key string, ct cellTrace) (res core.Result, ok bool) {
	c.m.fedProbes.Inc()
	probeStart := time.Now()
	defer func() {
		c.m.stageFederation.Observe(time.Since(probeStart).Seconds())
		c.spanRange(ct, probeStart, time.Now(), "federation_probe",
			telemetry.KV{K: "worker", V: w.id}, telemetry.KV{K: "hit", V: ok})
	}()
	pctx, cancel := context.WithTimeout(ctx, c.cfg.FederationTimeout)
	defer cancel()
	body, err := w.cl.Result(pctx, key)
	if err != nil {
		if !errors.Is(err, client.ErrNotFound) && ctx.Err() == nil {
			c.cfg.Logf("federated probe of worker %s for cell %s: %v", w.id, shortKey(key), err)
		}
		return core.Result{}, false
	}
	var cr service.CellResult
	if err := json.Unmarshal(body, &cr); err != nil {
		c.m.fedRejects.Inc()
		c.cfg.Logf("federated probe of worker %s for cell %s: undecodable payload: %v", w.id, shortKey(key), err)
		return core.Result{}, false
	}
	if cr.Key != key {
		c.m.fedRejects.Inc()
		c.cfg.Logf("worker %s answered federated read for cell %s under key %s; rejected",
			w.id, shortKey(key), shortKey(cr.Key))
		return core.Result{}, false
	}
	c.m.cellsFederated.Inc()
	c.cfg.Logf("cell %s served from worker %s's federated cache", shortKey(key), w.id)
	return cr.Result, true
}

// executeLocal is the graceful-degradation path: no live worker can
// take the cell, so the coordinator runs it in-process. The seed and
// parameters are untouched, so the result — and the merged report — is
// the same one a worker would have produced.
func (c *Coordinator) executeLocal(ctx context.Context, j exper.Job, key string, ct cellTrace) (core.Result, error) {
	c.m.cellsLocal.Inc()
	c.cfg.Logf("no live workers for cell %s; executing locally", shortKey(key))
	localStart := time.Now()
	res, err := c.cfg.Traces.ExecuteJob(ctx, j)
	c.m.stageLocal.Observe(time.Since(localStart).Seconds())
	c.spanRange(ct, localStart, time.Now(), "local_exec", telemetry.KV{K: "ok", V: err == nil})
	if err != nil {
		return core.Result{}, fmt.Errorf("cluster: cell %s local fallback: %w", shortKey(key), err)
	}
	return res, nil
}

// workerUnavailable declares a worker dead after a failed dispatch.
func (c *Coordinator) workerUnavailable(w *worker, cause error) {
	c.mu.Lock()
	//eeatlint:allow locksafe the death verdict and its journal record must be atomic under mu; membership appends are rare and small
	c.markDeadLocked(w, cause)
	c.mu.Unlock()
}

// dispatchTo runs one cell on one worker. The RPC context is cancelled
// the moment the worker is declared dead (by the watchdog or a
// concurrent dispatch), so a goroutine blocked in a long-poll Wait
// against a silent worker unblocks at the death verdict instead of its
// own timeout.
func (c *Coordinator) dispatchTo(ctx context.Context, w *worker, key string, wire service.WireJob, ct cellTrace) (core.Result, error) {
	rpcCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-w.deadCh:
			cancel()
		case <-rpcCtx.Done():
		}
	}()
	w.cells.Inc()
	c.m.cellsDispatched.Inc()
	dispatchStart := time.Now()
	cr, st, err := w.cl.RunCell(rpcCtx, service.SubmitRequest{Cell: &wire})
	dispatchEnd := time.Now()
	c.m.stageDispatch.Observe(dispatchEnd.Sub(dispatchStart).Seconds())
	c.spanRange(ct, dispatchStart, dispatchEnd, "dispatch",
		telemetry.KV{K: "worker", V: w.id}, telemetry.KV{K: "ok", V: err == nil})
	if st.QueueSeconds > 0 || st.ExecSeconds > 0 {
		// Worker-reported stage timing: only present on a terminal
		// status that actually executed (a cache-served reply spent no
		// worker time and would skew the histograms with zeros).
		c.m.stageWorkerQueue.Observe(st.QueueSeconds)
		c.m.stageWorkerExec.Observe(st.ExecSeconds)
		c.workerSpans(ct, w.id, dispatchEnd, st)
	}
	if err != nil {
		if ctx.Err() == nil && rpcCtx.Err() != nil {
			return core.Result{}, fmt.Errorf("cluster: worker %s died mid-dispatch of cell %s: %w",
				w.id, shortKey(key), client.ErrUnavailable)
		}
		return core.Result{}, fmt.Errorf("cluster: worker %s, cell %s: %w", w.id, shortKey(key), err)
	}
	if cr.Key != key {
		// A worker answering under the wrong key would poison the merge;
		// treat it as a protocol violation, not a retryable blip.
		return core.Result{}, fmt.Errorf("cluster: worker %s answered cell %s with key %s: %w",
			w.id, shortKey(key), shortKey(cr.Key), client.ErrProtocol)
	}
	return cr.Result, nil
}

func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}
