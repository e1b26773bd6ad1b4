// Byte-identity acceptance test for the workload compiler, in an
// external test package because it drives the real harness and the
// cluster report renderer over the tracec executor.
package tracec_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"xlate/internal/exper"
	"xlate/internal/harness"
	"xlate/internal/service/cluster"
	"xlate/internal/telemetry"
	"xlate/internal/tracec"
)

// TestReplayByteIdentity is the compiler's core guarantee: the fig2
// suite run compile-once-replay-many renders a report byte-identical
// to the committed live-synthesis golden (testdata/cluster/fig2.golden,
// regenerated by `make cluster-golden`), with every one of the suite's
// 24 cells executed — none skipped, none doubled — and every unique
// (spec, policy) pair compiled exactly once into the store.
func TestReplayByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second suite run")
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "cluster", "fig2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	fig2, ok := exper.ByID("fig2")
	if !ok {
		t.Fatal("no fig2 experiment")
	}
	store, err := tracec.OpenStore(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	s := harness.New(harness.Config{
		Workers: 4,
		// The golden's committed configuration (`make cluster`).
		Options:  exper.Options{Instrs: 400_000, Scale: 0.1, Seed: 7},
		Execute:  (&tracec.Executor{Store: store, CompileModels: true, Logf: t.Logf}).ExecuteJob,
		Registry: reg,
	})
	results, err := s.Run(context.Background(), []exper.Experiment{fig2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if n := cluster.WriteReport(&buf, results); n != 0 {
		t.Fatalf("%d experiments failed under replay", n)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("replayed fig2 report is not byte-identical to the live-synthesis golden:\n--- replay ---\n%s\n--- golden ---\n%s",
			buf.Bytes(), golden)
	}
	if got := reg.Counter("xlate_harness_cells_completed_total", "").Load(); got != 24 {
		t.Errorf("cells completed = %d, want 24 (replay must not change the cell plan)", got)
	}
	// fig2 sweeps 8 TLB-intensive workloads over 4KB/THP/RMM; 4KB and
	// THP share neither policy, so the store compiles one segment per
	// (workload, policy) pair the plan touched — and nothing else.
	if n, _ := store.Stats(); n == 0 || n > 24 {
		t.Errorf("store holds %d segments after the suite, want 1..24", n)
	}
}
