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
	"xlate/internal/workloads"
)

// Executor is the one per-cell executor: the harness (Config.Execute),
// the service daemon, and the cluster coordinator's local fallback all
// run their cells through ExecuteJob. Every path ends in one of exper's
// two run helpers; the cell shape only decides the reference source:
//
//   - Cells whose spec is trace-backed (Spec.TraceRef) replay an
//     ingested segment from the Store on a demand-paged space
//     (exper.RunDemand), fetching it by content hash from the upstream
//     (coordinator) on a local miss. These cells need a Store —
//     workloads.Spec.Build refuses them.
//   - Model cells compile-once-replay-many when CompileModels is set:
//     the first cell for a (spec, policy, seed, scale, budget) tuple
//     compiles the segment (one load per key), every later cell —
//     including Params sweeps over the same workload — replays it on
//     the model-built space (exper.RunModel). Reports stay
//     byte-identical to live synthesis (see CompileSpec).
//   - Otherwise model cells synthesize live (exper.ExecuteJobContext).
//
// The zero Executor therefore runs model cells live and refuses
// trace-backed ones, so a holder never needs a nil check.
type Executor struct {
	// Store holds the segments (nil: no compiled or ingested cells).
	Store *Store
	// CompileModels turns on compile-once-replay-many for model cells
	// (the -compile-traces flag).
	CompileModels bool
	// Fetch, when non-nil, retrieves a missing ingested segment by
	// content hash — cluster workers point this at the coordinator's
	// /v1/traces/{key} (HTTPFetcher).
	Fetch func(ctx context.Context, key string) ([]byte, error)
	// Logf receives compile/fetch progress (nil = silent).
	Logf func(format string, args ...any)

	// segs memoizes validated segments: the harness replays one
	// segment across many cells (Params sweeps, retries, repeated
	// specs), and the strict Stat gate plus the disk read should be
	// paid once per segment, not once per cell. Past segCacheBytes the
	// oldest segments go, which at worst re-reads and revalidates —
	// never a correctness concern, a Segment is immutable. loads shares
	// one load and validation among concurrent misses on one key.
	segsOnce sync.Once
	segs     *keyed.Cache[string, Segment]
	loads    keyed.Group[string, Segment]
}

// segCacheBytes bounds the in-memory validated-segment memo by segment
// size (256 MiB ≈ a few hundred compiled cells at experiment scale).
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

// ExecuteJob executes one cell, replaying a segment where one applies.
// It matches the harness Config.Execute signature and is safe for
// concurrent calls.
func (e *Executor) ExecuteJob(ctx context.Context, j exper.Job) (core.Result, error) {
	if j.Spec.TraceRef != "" {
		return e.replayIngested(ctx, j)
	}
	if !e.CompileModels || e.Store == nil {
		return exper.ExecuteJobContext(ctx, j)
	}
	return e.replayModel(ctx, j)
}

// replayModel is the compile-once-replay-many path: look up (or
// compile and store) the spec's segment and replay it on the
// model-built space. The segment flight makes concurrent cells for one
// key share a single compile.
func (e *Executor) replayModel(ctx context.Context, j exper.Job) (core.Result, error) {
	bopt := workloads.BuildOptions{Policy: j.Policy, Seed: j.Seed, Scale: j.Scale}
	key := Key(j.Spec, bopt, j.Instrs)
	seg, err := e.segment(ctx, key, func() (Segment, error) {
		if data, err := e.Store.Get(key); err == nil {
			return Validate(data)
		}
		data, info, err := CompileSpec(j.Spec, bopt, j.Instrs)
		if err != nil {
			return Segment{}, err
		}
		seg, err := Validate(data)
		if err != nil {
			return Segment{}, err
		}
		e.logf("compiled %s → %s (%d refs, %d blocks, %d bytes)",
			j.Spec.Name, key[:12], info.Refs, info.Blocks, len(data))
		return seg, e.Store.Put(key, seg)
	})
	if err != nil {
		return core.Result{}, fmt.Errorf("tracec: %s/%v: %w", j.Spec.Name, j.Params.Kind, err)
	}
	// The compiled stream is the exact prefix the generator would
	// yield, so on the space the spec builds the Result is the live one.
	return exper.RunModel(ctx, j, seg.Replay())
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
