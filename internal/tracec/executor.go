package tracec

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"

	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/keyed"
)

// Executor is the per-cell executor of the service daemon and the
// cluster coordinator's local fallback. A cell whose spec is
// trace-backed (Spec.TraceRef) replays an ingested segment from the
// Store on a demand-paged space (exper.RunDemand), fetching it by
// content hash from the upstream (coordinator) on a local miss; such
// cells need a Store, as workloads.Spec.Build refuses them. Every other
// cell synthesizes live (exper.ExecuteJobContext).
//
// The zero Executor therefore runs model cells live and refuses
// trace-backed ones, so a holder never needs a nil check.
type Executor struct {
	// Store holds the ingested segments (nil: no trace-backed cells).
	Store *Store
	// Fetch, when non-nil, retrieves a missing ingested segment by
	// content hash — cluster workers point this at the coordinator's
	// /v1/traces/{key} (HTTPFetcher).
	Fetch func(ctx context.Context, key string) ([]byte, error)
	// Logf receives fetch progress (nil = silent).
	Logf func(format string, args ...any)

	// segs memoizes validated segments: one ingested segment replays
	// across many cells (the configurations of a trace experiment,
	// retries, repeated submissions), and the strict Stat gate plus the
	// disk read or fetch should be paid once per segment, not once per
	// cell. Past segCacheBytes the oldest segments go, which at worst
	// re-reads and revalidates — never a correctness concern, a Segment
	// is immutable. loads shares one load and validation among
	// concurrent misses on one key.
	segsOnce sync.Once
	segs     *keyed.Cache[string, Segment]
	loads    keyed.Group[string, Segment]
}

// segCacheBytes bounds the in-memory validated-segment memo by segment
// size.
const segCacheBytes = 256 << 20

// segment returns the validated segment under key, loading and
// validating only on the first request. Concurrent requests for a key
// that is not memoized share one load (see keyed.Group).
func (e *Executor) segment(ctx context.Context, key string, load func() (Segment, error)) (Segment, error) {
	e.segsOnce.Do(func() { e.segs = keyed.New[string, Segment](0, segCacheBytes, 0, nil) })
	if seg, ok := e.segs.Get(key); ok {
		return seg, nil
	}
	return e.loads.Do(ctx, key, func() (Segment, error) {
		if seg, ok := e.segs.Get(key); ok {
			return seg, nil
		}
		seg, err := load()
		if err != nil {
			return Segment{}, err
		}
		e.segs.Put(key, seg, int64(len(seg.Bytes())))
		return seg, nil
	})
}

func (e *Executor) logf(format string, args ...any) {
	if e.Logf != nil {
		e.Logf(format, args...)
	}
}

// ExecuteJob executes one cell, replaying its segment when the cell is
// trace-backed. It matches the harness Config.Execute signature and is
// safe for concurrent calls.
func (e *Executor) ExecuteJob(ctx context.Context, j exper.Job) (core.Result, error) {
	if j.Spec.TraceRef != "" {
		return e.replayIngested(ctx, j)
	}
	return exper.ExecuteJobContext(ctx, j)
}

// replayIngested runs a trace-backed cell: an externally ingested
// reference stream replayed under demand paging (the stream's virtual
// addresses mean nothing to the eager-paging policy model, so pages
// materialize on first touch — the same helper xlate.ReplayTrace uses
// for recorded traces). A short trace wraps until the budget is met.
func (e *Executor) replayIngested(ctx context.Context, j exper.Job) (core.Result, error) {
	if e.Store == nil {
		return core.Result{}, fmt.Errorf("tracec: trace-backed cell %s needs a segment store", j.Spec.Name)
	}
	key := j.Spec.TraceRef
	seg, err := e.segment(ctx, key, func() (Segment, error) {
		data, err := e.Store.Get(key)
		switch {
		case err == nil:
			return Validate(data)
		case e.Fetch == nil:
			return Segment{}, err
		}
		if data, err = e.Fetch(ctx, key); err != nil {
			return Segment{}, err
		}
		seg, err := Validate(data)
		if err != nil {
			return Segment{}, err
		}
		if err := e.Store.Put(key, seg); err != nil {
			return Segment{}, err
		}
		e.logf("fetched segment %s from upstream (%d bytes)", key[:12], len(data))
		return seg, nil
	})
	if err != nil {
		return core.Result{}, fmt.Errorf("tracec: %s: %w", j.Spec.Name, err)
	}
	return exper.RunDemand(ctx, j, seg.Replay(), 0)
}

// HTTPFetcher returns a Fetch func that retrieves segments from base's
// /v1/traces/{key} endpoint and verifies the body against its content
// hash before trusting it — the same recompute-the-identity trust rule
// the cluster's result-cache federation applies to fetched results.
func HTTPFetcher(base string, hc *http.Client) func(ctx context.Context, key string) ([]byte, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	return func(ctx context.Context, key string) ([]byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/traces/"+key, nil)
		if err != nil {
			return nil, fmt.Errorf("tracec: fetching segment %s: %w", key, err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, fmt.Errorf("tracec: fetching segment %s: %w", key, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			return nil, fmt.Errorf("tracec: fetching segment %s: %w", key, ErrNotFound)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("tracec: fetching segment %s: upstream status %s", key, resp.Status)
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxSegmentBytes+1))
		if err != nil {
			return nil, fmt.Errorf("tracec: fetching segment %s: %w", key, err)
		}
		if len(data) > maxSegmentBytes {
			return nil, fmt.Errorf("tracec: fetching segment %s: larger than the %d-byte segment bound", key, maxSegmentBytes)
		}
		if got := ContentKey(data); got != key {
			return nil, fmt.Errorf("tracec: fetched segment hash %s does not match requested %s — refusing the bytes", got[:12], key[:12])
		}
		return data, nil
	}
}
