package cluster

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xlate/internal/exper"
	"xlate/internal/harness"
	"xlate/internal/service/client"
	"xlate/internal/telemetry"
)

// testOptions is the reduced-scale fig2 configuration every cluster
// test runs: 24 cells (8 TLB-intensive workloads × 3 configs), small
// enough to finish in seconds.
func testOptions() exper.Options {
	return exper.Options{Instrs: 200_000, Scale: 0.1, Seed: 7}
}

func fig2(t *testing.T) exper.Experiment {
	t.Helper()
	e, ok := exper.ByID("fig2")
	if !ok {
		t.Fatal("no fig2 experiment")
	}
	return e
}

// singleProcessReport renders the reference report the cluster runs
// must match byte for byte.
func singleProcessReport(t *testing.T) string {
	t.Helper()
	s := harness.New(harness.Config{Workers: 4, Options: testOptions()})
	results, err := s.Run(context.Background(), []exper.Experiment{fig2(t)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if n := WriteReport(&buf, results); n != 0 {
		t.Fatalf("%d experiments failed in the reference run", n)
	}
	return buf.String()
}

func fastRetry() client.Backoff {
	return client.Backoff{Attempts: 3, Base: 10 * time.Millisecond, Cap: 50 * time.Millisecond, Seed: 7}
}

func metric(t *testing.T, reg *telemetry.Registry, name string) uint64 {
	t.Helper()
	// Registering an existing name returns the existing handle.
	return reg.Counter(name, "").Load()
}

func TestDevClusterByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster run")
	}
	want := singleProcessReport(t)

	reg := telemetry.NewRegistry()
	dev, err := StartDev(context.Background(), DevConfig{
		Workers:  3,
		Options:  testOptions(),
		Retry:    fastRetry(),
		Registry: reg,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	results, err := dev.Run(ctx, []exper.Experiment{fig2(t)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if n := WriteReport(&buf, results); n != 0 {
		t.Fatalf("%d experiments failed in the cluster run", n)
	}
	if buf.String() != want {
		t.Errorf("cluster report differs from the single-process report:\n--- cluster\n%s\n--- single\n%s", buf.String(), want)
	}

	if got := metric(t, reg, "xlate_cluster_cells_executed_total"); got != 24 {
		t.Errorf("cells executed = %d, want 24", got)
	}
	if got := metric(t, reg, "xlate_cluster_cells_local_total"); got != 0 {
		t.Errorf("%d cells fell back to local execution with 3 healthy workers", got)
	}
	if got := metric(t, reg, "xlate_cluster_workers_dead_total"); got != 0 {
		t.Errorf("%d workers died in a chaos-free run", got)
	}
}

// A clean run tears down quietly: Close severs the workers without the
// chaos injector's kill line, and their daemons, idle by then, log no
// cancelled drain.
func TestDevClusterCloseIsQuiet(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster run")
	}
	var (
		mu  sync.Mutex
		log strings.Builder
	)
	dev, err := StartDev(context.Background(), DevConfig{
		Workers: 2,
		Options: exper.Options{Instrs: 50_000, Scale: 0.05, Seed: 7},
		Retry:   fastRetry(),
		Logf: func(f string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(&log, f+"\n", args...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	_, err = dev.Run(ctx, []exper.Experiment{fig2(t)})
	dev.Close()
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range []string{"chaos: killing worker", "drain deadline reached"} {
		if strings.Contains(log.String(), line) {
			t.Errorf("a clean run's log says %q:\n%s", line, log.String())
		}
	}
}

// The satellite-3 requeue test: kill a worker mid-experiment and
// require (a) the merged report byte-identical to a single-process run,
// (b) the death and requeues visible in metrics, and (c) no completed
// cell executed twice — the cells-executed counter equals the planned
// cell count exactly.
func TestDevClusterRequeueOnWorkerDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster run")
	}
	want := singleProcessReport(t)

	reg := telemetry.NewRegistry()
	dev, err := StartDev(context.Background(), DevConfig{
		Workers: 3,
		Options: testOptions(),
		Retry:   fastRetry(),
		// The ring assigns w0 13 of fig2's 24 cells (2–3 RPCs each), so
		// its 10th RPC lands mid-run: some of its cells are already
		// merged, the rest are in flight or queued when it dies.
		Chaos:            []Directive{{Kind: "kill", Worker: 0, AtRPC: 10}},
		HeartbeatTimeout: 500 * time.Millisecond,
		Registry:         reg,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	results, err := dev.Run(ctx, []exper.Experiment{fig2(t)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if n := WriteReport(&buf, results); n != 0 {
		t.Fatalf("%d experiments failed after the worker kill", n)
	}
	if buf.String() != want {
		t.Errorf("post-kill merged report differs from the single-process report:\n--- cluster\n%s\n--- single\n%s", buf.String(), want)
	}

	if got := metric(t, reg, "xlate_cluster_workers_dead_total"); got != 1 {
		t.Errorf("workers dead = %d, want exactly the killed one", got)
	}
	if got := metric(t, reg, "xlate_cluster_requeues_total"); got == 0 {
		t.Error("no requeues recorded although a worker died mid-run")
	}
	if got := metric(t, reg, "xlate_cluster_cells_executed_total"); got != 24 {
		t.Errorf("cells executed = %d, want 24 — a completed cell was recomputed (or lost)", got)
	}
	if dev.Coordinator().LiveWorkers() != 2 {
		t.Errorf("live workers = %d, want 2", dev.Coordinator().LiveWorkers())
	}
}

// Zero live workers must degrade to local execution, not hang.
func TestCoordinatorLocalFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second run")
	}
	want := singleProcessReport(t)

	reg := telemetry.NewRegistry()
	coord, err := NewCoordinator(Config{
		Options:  testOptions(),
		Retry:    fastRetry(),
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.End()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	results, err := coord.RunSuite(ctx, []exper.Experiment{fig2(t)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if n := WriteReport(&buf, results); n != 0 {
		t.Fatalf("%d experiments failed in the workerless run", n)
	}
	if buf.String() != want {
		t.Error("workerless local-fallback report differs from the single-process report")
	}
	if got := metric(t, reg, "xlate_cluster_cells_local_total"); got != 24 {
		t.Errorf("cells local = %d, want all 24", got)
	}
}

// A worker that stops heartbeating is declared dead by the watchdog
// and leaves the ring.
func TestHeartbeatTimeoutDeclaresDead(t *testing.T) {
	reg := telemetry.NewRegistry()
	coord, err := NewCoordinator(Config{
		HeartbeatTimeout: 80 * time.Millisecond,
		Registry:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.End()

	coord.AddWorker("w0", "http://127.0.0.1:1")
	if coord.LiveWorkers() != 1 {
		t.Fatal("worker did not join")
	}
	deadline := time.Now().Add(5 * time.Second)
	for coord.LiveWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never declared the silent worker dead")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := metric(t, reg, "xlate_cluster_workers_dead_total"); got != 1 {
		t.Errorf("workers dead = %d, want 1", got)
	}
	// A heartbeat from the dead worker is refused — it must rejoin.
	if coord.Heartbeat("w0") {
		t.Error("heartbeat from a dead worker accepted")
	}
	coord.AddWorker("w0", "http://127.0.0.1:1")
	if coord.LiveWorkers() != 1 {
		t.Error("dead worker could not rejoin")
	}
}

// Dev-cluster control plane over real HTTP: join, heartbeat, leave.
func TestControlPlaneJoinLeave(t *testing.T) {
	dev, err := StartDev(context.Background(), DevConfig{
		Workers:          2,
		Options:          testOptions(),
		HeartbeatTimeout: time.Second,
		HeartbeatEvery:   50 * time.Millisecond,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	if n := dev.Coordinator().LiveWorkers(); n != 2 {
		t.Fatalf("live workers after StartDev = %d, want 2", n)
	}
	infos := dev.Coordinator().Workers()
	if len(infos) != 2 {
		t.Fatalf("worker infos: %+v", infos)
	}
	for _, wi := range infos {
		if !strings.HasPrefix(wi.ID, "w") || wi.Dead {
			t.Errorf("unexpected worker info %+v", wi)
		}
	}

	// Killing a worker stops its heartbeats; the leave it sends on the
	// way out (or the watchdog) prunes it from the ring.
	dev.KillWorker(0)
	deadline := time.Now().Add(5 * time.Second)
	for dev.Coordinator().LiveWorkers() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("killed worker never left the ring")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
