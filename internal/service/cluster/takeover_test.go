package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"xlate/internal/exper"
	"xlate/internal/service"
	"xlate/internal/telemetry"
)

// goldenOptions is the committed-golden configuration (`make cluster`):
// the merged report under these options must be byte-identical to
// testdata/cluster/fig2.golden.
func goldenOptions() exper.Options {
	return exper.Options{Instrs: 400_000, Scale: 0.1, Seed: 7}
}

func readGolden(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "cluster", "fig2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// waitWorkersIdle blocks until no live dev worker has a queued or
// running job — the moment every cell admitted before a coordinator
// kill has landed in its worker's content-addressed cache.
func waitWorkersIdle(t *testing.T, dev *DevCluster, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		idle := true
	scan:
		for _, w := range dev.workers {
			if w.killed.Load() {
				continue
			}
			st := w.svc.Status()
			if st.QueueDepth > 0 {
				idle = false
				break
			}
			for _, j := range st.Jobs {
				if j.State == service.StateQueued || j.State == service.StateRunning {
					idle = false
					break scan
				}
			}
		}
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("workers never went idle after the coordinator kill")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// The tentpole acceptance test: SIGKILL-equivalent the coordinator
// mid-suite (after its journal holds 12 of fig2's 24 cells), restart
// it, and require (a) the re-run report byte-identical to the
// committed golden, (b) the global cells-executed counter equal to the
// planned 24 — no cell executed twice across both coordinator
// generations — and (c) at least one interrupted cell served from a
// worker's federated cache instead of being re-simulated.
func TestCoordinatorTakeoverResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster run")
	}
	golden := readGolden(t)
	reg := telemetry.NewRegistry()
	journal := filepath.Join(t.TempDir(), "coord.journal")

	dev, err := StartDev(context.Background(), DevConfig{
		Workers:  3,
		Options:  goldenOptions(),
		Retry:    fastRetry(),
		Journal:  journal,
		Chaos:    []Directive{{Kind: kindKillCoord, Worker: coordinatorIndex, AtRPC: 12}},
		Registry: reg,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	// First run: dies with the coordinator mid-suite.
	_, err = dev.Run(ctx, []exper.Experiment{fig2(t)})
	if !errors.Is(err, ErrCoordinatorDown) {
		t.Fatalf("first run = %v, want ErrCoordinatorDown", err)
	}
	if !dev.CoordinatorDown() {
		t.Fatal("coordinator still up after killcoord fired")
	}

	// Let the workers finish every cell they had already admitted —
	// those results exist only in worker caches, not in the journal,
	// and are exactly what the takeover's federation must harvest.
	waitWorkersIdle(t, dev, 60*time.Second)

	if err := dev.RestartCoordinator(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !dev.Coordinator().TookOver() {
		t.Fatal("restarted coordinator did not replay the journal")
	}
	if n := len(dev.Coordinator().CompletedCells()); n < 12 {
		t.Fatalf("journal replayed %d cells, want >= 12", n)
	}

	// Second run: resumes from the journal, finishes the suite.
	results, err := dev.Run(ctx, []exper.Experiment{fig2(t)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if n := WriteReport(&buf, results); n != 0 {
		t.Fatalf("%d experiments failed in the takeover run", n)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("takeover report differs from the committed golden:\n--- takeover\n%s\n--- golden\n%s", buf.String(), golden)
	}

	if got := metric(t, reg, "xlate_cluster_cells_executed_total"); got != 24 {
		t.Errorf("cells executed across both generations = %d, want exactly 24", got)
	}
	if got := metric(t, reg, "xlate_cluster_cells_federated_total"); got == 0 {
		t.Error("no cell was served from a federated worker cache after the takeover")
	}
	if got := metric(t, reg, "xlate_cluster_takeovers_total"); got != 1 {
		t.Errorf("takeovers = %d, want 1", got)
	}
	if got := metric(t, reg, "xlate_cluster_coordinator_restarts_total"); got != 1 {
		t.Errorf("coordinator restarts = %d, want 1", got)
	}
}

// The chaos soak (tentpole part 3, in-process edition): concurrent
// identical suites through one coordinator while the chaos plan kills
// a worker and then the coordinator itself. Every suite's report must
// come out byte-identical and the no-double-execution invariant must
// hold globally; RunSoak fails loudly on either violation.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster soak")
	}
	want := singleProcessReport(t)
	reg := telemetry.NewRegistry()

	res, err := RunSoak(context.Background(), SoakConfig{
		DevConfig: DevConfig{
			Workers: 3,
			Options: testOptions(),
			Retry:   fastRetry(),
			Journal: filepath.Join(t.TempDir(), "coord.journal"),
			Chaos: []Directive{
				{Kind: "kill", Worker: 0, AtRPC: 10},
				{Kind: kindKillCoord, Worker: coordinatorIndex, AtRPC: 12},
			},
			HeartbeatTimeout: 500 * time.Millisecond,
			Registry:         reg,
			Logf:             t.Logf,
		},
		Suites:      3,
		Experiments: []exper.Experiment{fig2(t)},
		Golden:      []byte(want),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mismatches != 0 {
		t.Errorf("%d of %d soak suites mismatched the golden", res.Mismatches, res.Suites)
	}
	if res.Restarts < 1 {
		t.Errorf("coordinator restarts = %d, want >= 1", res.Restarts)
	}
	if res.UniqueCells != 24 {
		t.Errorf("unique cells = %d, want 24", res.UniqueCells)
	}
	if res.CellsExecuted != 24 {
		t.Errorf("cells executed = %d, want exactly 24 across all suites and generations", res.CellsExecuted)
	}
	if res.WorkersDead < 1 {
		t.Errorf("workers dead = %d, want the chaos-killed one", res.WorkersDead)
	}
}

// dropOneHeartbeat fails exactly one heartbeat POST with a transport
// error; everything else passes through.
type dropOneHeartbeat struct {
	dropped atomic.Bool
}

func (d *dropOneHeartbeat) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v1/cluster/heartbeat" && d.dropped.CompareAndSwap(false, true) {
		return nil, errors.New("chaos: heartbeat packet dropped")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// Satellite 2: a single dropped heartbeat must not get a healthy
// worker declared dead. The beat period (600ms) is tuned so that
// without the sender's in-beat retry the gap to the next tick (1.2s)
// would blow the 1s timeout; the capped retry closes the gap within
// tens of milliseconds instead.
func TestHeartbeatDropToleratedByRetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	coord, err := NewCoordinator(Config{
		HeartbeatTimeout: time.Second,
		Registry:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.End()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	drop := &dropOneHeartbeat{}
	ctx, cancel := context.WithCancel(context.Background())
	hb := HeartbeatSender{
		Coord: srv.URL, ID: "w0", Addr: "http://127.0.0.1:1",
		Every: 600 * time.Millisecond,
		Retry: fastRetry(),
		HTTP:  &http.Client{Transport: drop},
		Logf:  t.Logf,
	}
	done := make(chan struct{})
	go func() { defer close(done); hb.Run(ctx) }()

	deadline := time.Now().Add(5 * time.Second)
	for coord.LiveWorkers() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never joined")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Ride out several beat periods — including the dropped beat and
	// multiple watchdog sweeps past the timeout — then check liveness
	// before stopping the sender (its shutdown posts a graceful leave).
	time.Sleep(2500 * time.Millisecond)
	live := coord.LiveWorkers()
	dead := metric(t, reg, "xlate_cluster_workers_dead_total")
	cancel()
	<-done

	if !drop.dropped.Load() {
		t.Fatal("the chaos transport never dropped a heartbeat — the test exercised nothing")
	}
	if dead != 0 {
		t.Errorf("a single dropped heartbeat killed the worker (workers dead = %d, want 0)", dead)
	}
	if live != 1 {
		t.Errorf("live workers = %d, want 1", live)
	}
}
