package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"xlate/internal/service/client"
	"xlate/internal/telemetry"
	"xlate/internal/tracec"
)

// ErrCrashed, passed as a cancellation cause to HeartbeatLoop's
// context, suppresses the graceful leave: the worker vanishes without
// a goodbye, like a crashed process. The chaos injector uses it.
var ErrCrashed = errors.New("cluster: worker crashed")

// joinRequest is the body of POST /v1/cluster/join and
// /v1/cluster/leave; heartbeat sends only the id.
type joinRequest struct {
	ID   string `json:"id"`
	Addr string `json:"addr,omitempty"`
}

// Handler returns the coordinator's control-plane API:
//
//	POST /v1/cluster/join       {"id","addr"} — register / rejoin
//	POST /v1/cluster/heartbeat  {"id"}        — 404 asks the worker to rejoin
//	POST /v1/cluster/leave      {"id"}        — graceful deregistration
//	GET  /v1/cluster/workers                  — registry snapshot
//	GET  /v1/cluster/metrics                  — federated worker metrics
//	GET  /status                              — cluster status + registry
//	GET  /metrics, /healthz
//
// /metrics is the coordinator's own registry; /v1/cluster/metrics
// scrapes every live worker and merges their registries into one
// exposition (summed counters, merged histograms, per-worker series).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/cluster/join", func(w http.ResponseWriter, r *http.Request) {
		req, ok := c.decodeJoin(w, r)
		if !ok {
			return
		}
		if req.Addr == "" {
			http.Error(w, "cluster: join needs an addr", http.StatusBadRequest)
			return
		}
		c.AddWorker(req.ID, req.Addr)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/v1/cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		req, ok := c.decodeJoin(w, r)
		if !ok {
			return
		}
		if !c.Heartbeat(req.ID) {
			http.Error(w, "cluster: unknown or dead worker; rejoin", http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/v1/cluster/leave", func(w http.ResponseWriter, r *http.Request) {
		req, ok := c.decodeJoin(w, r)
		if !ok {
			return
		}
		c.RemoveWorker(req.ID)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/v1/cluster/workers", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(c.Workers()) //nolint:errcheck // best-effort status surface
	})
	mux.HandleFunc("/v1/cluster/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := c.FederatedMetrics(r.Context(), w); err != nil {
			c.cfg.Logf("federated metrics: %v", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if c.cfg.Traces.Store != nil {
		// Trace ingestion on the control plane (DESIGN.md §15): streams
		// ingested here become "trace:<key>" workloads, and workers fetch
		// dispatched trace-backed cells' segments from this store by
		// content hash.
		api := tracec.NewAPI(c.cfg.Traces.Store, c.cfg.Logf)
		mux.Handle("/v1/traces", api)
		mux.Handle("/v1/traces/", api)
	}
	mux.Handle("/metrics", telemetry.MetricsHandler(c.cfg.Registry))
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		telemetry.StatusHandler(c.cfg.Registry, func() any {
			return c.Status(r.Context())
		}).ServeHTTP(w, r)
	})
	return mux
}

// decodeJoin parses a bounded control-plane body; every cluster RPC
// body is a few dozen bytes, so the 64 KiB cap is pure abuse defense.
func (c *Coordinator) decodeJoin(w http.ResponseWriter, r *http.Request) (joinRequest, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return joinRequest{}, false
	}
	var req joinRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<10))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil || req.ID == "" {
		http.Error(w, "cluster: bad control request", http.StatusBadRequest)
		return joinRequest{}, false
	}
	return req, true
}

// HeartbeatSender is the worker side of the health protocol: join the
// coordinator, then heartbeat every Every until ctx ends, rejoining
// whenever the coordinator answers 404 (it declared us dead, or it
// restarted with takeover state — either way the cure is a fresh join,
// which also puts the worker back on the ring).
//
// A transient failure does not wait for the next tick: the beat is
// retried within the beat window on the Retry schedule, so one dropped
// packet cannot cost a whole heartbeat period and push a healthy
// worker over the coordinator's timeout. The loop never gives up while
// ctx lives.
type HeartbeatSender struct {
	// Coord is the coordinator base URL; ID and Addr identify this
	// worker (Addr is what the coordinator dispatches to).
	Coord, ID, Addr string
	// Every is the beat period (default 1s).
	Every time.Duration
	// Retry paces in-beat retries of a failed heartbeat (zero value: 4
	// attempts, 100ms doubling).
	Retry client.Backoff
	// HTTP is the control-plane client (default http.DefaultClient).
	// Tests inject failing transports here; the dev cluster's chaos
	// transports wrap the coordinator's worker clients instead.
	HTTP *http.Client
	// Logf receives protocol noise (nil = silent).
	Logf func(format string, args ...any)
}

// Run drives the protocol until ctx ends. When the cancellation cause
// is ErrCrashed the worker vanishes silently, like a dead process;
// otherwise it posts a best-effort leave so the coordinator rebalances
// now instead of at the heartbeat timeout.
func (h *HeartbeatSender) Run(ctx context.Context) {
	logf := h.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	every := h.Every
	if every <= 0 {
		every = time.Second
	}
	attempts := h.Retry.Attempts
	if attempts <= 0 {
		attempts = 4
	}
	if err := h.post(ctx, "join", joinRequest{ID: h.ID, Addr: h.Addr}); err != nil {
		logf("cluster join: %v (will retry)", err)
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			if errors.Is(context.Cause(ctx), ErrCrashed) {
				// A simulated crash dies silently: the coordinator must
				// find out the hard way (failed RPC or missed
				// heartbeats), exactly like a real dead process.
				return
			}
			// The leave runs because ctx just ended, so it cannot hang off
			// ctx's own deadline; WithoutCancel detaches deliberately while
			// keeping the context's values, with a fresh 1s cap.
			leaveCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), time.Second)
			h.post(leaveCtx, "leave", joinRequest{ID: h.ID}) //nolint:errcheck // shutting down
			cancel()
			return
		case <-t.C:
			h.beat(ctx, attempts, logf)
		}
	}
}

// beat delivers one heartbeat, absorbing transient failures with
// capped in-beat retries and answering a 404 with a rejoin.
func (h *HeartbeatSender) beat(ctx context.Context, attempts int, logf func(string, ...any)) {
	for attempt := 1; ; attempt++ {
		err := h.post(ctx, "heartbeat", joinRequest{ID: h.ID})
		if err == nil {
			return
		}
		if errNotFound(err) {
			logf("coordinator forgot us; rejoining")
			if err := h.post(ctx, "join", joinRequest{ID: h.ID, Addr: h.Addr}); err != nil {
				logf("cluster rejoin: %v (will retry)", err)
			}
			return
		}
		if ctx.Err() != nil {
			return
		}
		if attempt >= attempts {
			logf("heartbeat gave up after %d attempts: %v (next beat will retry)", attempt, err)
			return
		}
		logf("heartbeat attempt %d: %v (retrying in-beat)", attempt, err)
		if sleepCtx(ctx, h.Retry.Delay("heartbeat|"+h.ID, attempt)) != nil {
			return
		}
	}
}

func (h *HeartbeatSender) post(ctx context.Context, op string, req joinRequest) error {
	return postControl(ctx, h.HTTP, h.Coord, op, req)
}

// Leave deregisters a worker gracefully — the SIGTERM path: the
// coordinator requeues the worker's keyspace immediately instead of
// waiting out the heartbeat timeout.
func Leave(ctx context.Context, coordBase, id string) error {
	if err := postControl(ctx, nil, coordBase, "leave", joinRequest{ID: id}); err != nil {
		return fmt.Errorf("cluster: graceful leave of worker %s: %w", id, err)
	}
	return nil
}

// sleepCtx sleeps for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// controlError carries the HTTP status of a failed control call.
type controlError struct {
	op   string
	code int
}

func (e *controlError) Error() string {
	return fmt.Sprintf("cluster: %s: HTTP %d", e.op, e.code)
}

func errNotFound(err error) bool {
	var ce *controlError
	return errors.As(err, &ce) && ce.code == http.StatusNotFound
}

func postControl(ctx context.Context, hc *http.Client, base, op string, req joinRequest) error {
	if hc == nil {
		hc = http.DefaultClient
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("cluster: encoding %s: %w", op, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/cluster/"+op, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", op, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(hreq)
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", op, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: control call failed: %w", &controlError{op: op, code: resp.StatusCode})
	}
	return nil
}
