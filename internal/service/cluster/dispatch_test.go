package cluster

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"xlate/internal/addr"
	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/service/client"
	"xlate/internal/telemetry"
	"xlate/internal/trace"
	"xlate/internal/tracec"
	"xlate/internal/workloads"
)

// Concurrent requests for one cell share a single lead: exactly one
// execution, every other answer counted as deduped (joined the lead)
// or memo (arrived after it), and a waiter whose own context ends gets
// the coordinator's wrapped context error. The workerless coordinator
// runs the cell locally; its segment fetch blocks until released, which
// holds the lead open.
func TestExecuteCellLeadsOnce(t *testing.T) {
	refs := make([]trace.Ref, 2000)
	for i := range refs {
		refs[i] = trace.Ref{VA: addr.VA(1<<30 + uint64(i%512)<<12), Instrs: 3}
	}
	enc := tracec.NewEncoder()
	for _, r := range refs {
		enc.Add(r)
	}
	seg, _, err := enc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	key := tracec.ContentKey(seg)
	store, err := tracec.OpenStore(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	fetch := func(ctx context.Context, _ string) ([]byte, error) {
		close(entered)
		select {
		case <-release:
			return seg, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	reg := telemetry.NewRegistry()
	coord, err := NewCoordinator(Config{
		Options:  testOptions(),
		Retry:    client.Backoff{Attempts: 1, Seed: 7},
		Registry: reg,
		Traces:   &tracec.Executor{Store: store, Fetch: fetch},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.End()

	j := exper.Job{Spec: workloads.TraceSpec(key), Params: core.DefaultParams(core.Cfg4KB),
		Policy: core.PolicyFor(core.Cfg4KB, 0.5), Instrs: 20_000, Seed: 7}
	var lead core.Result
	var leadErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lead, leadErr = coord.executeCell(context.Background(), j)
	}()
	<-entered
	if n := coord.InFlightCells(); n != 1 {
		t.Errorf("InFlightCells = %d during the lead, want 1", n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := coord.executeCell(ctx, j); !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "cluster: cell ") {
		t.Errorf("cancelled waiter got %v, want the wrapped \"cluster: cell <key>: context canceled\"", err)
	}

	const waiters = 3
	results := make([]core.Result, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = coord.executeCell(context.Background(), j)
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let the waiters join the lead
	close(release)
	wg.Wait()
	if leadErr != nil {
		t.Fatal(leadErr)
	}
	for i := range results {
		if errs[i] != nil || !reflect.DeepEqual(results[i], lead) {
			t.Fatalf("waiter %d: err %v, or its Result differs from the lead's", i, errs[i])
		}
	}
	executed := metric(t, reg, "xlate_cluster_cells_executed_total")
	deduped := metric(t, reg, "xlate_cluster_cells_deduped_total")
	memo := metric(t, reg, "xlate_cluster_cells_memo_total")
	if executed != 1 || deduped+memo != waiters {
		t.Errorf("executed %d, deduped %d, memo %d; want 1 execution and %d shared answers", executed, deduped, memo, waiters)
	}
	if _, err := coord.executeCell(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if got := metric(t, reg, "xlate_cluster_cells_memo_total"); got != memo+1 {
		t.Errorf("a completed cell's repeat counted memo %d → %d, want +1", memo, got)
	}
	if n := coord.InFlightCells(); n != 0 {
		t.Errorf("InFlightCells = %d after the lead, want 0", n)
	}
}
