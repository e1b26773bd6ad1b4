package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xlate"
)

// TestMain runs the command itself when the test binary is re-executed
// by eeatsim below, so the tests drive the real flag parsing and exit
// codes without building a separate binary.
func TestMain(m *testing.M) {
	if os.Getenv("EEATSIM_RUN_MAIN") == "1" {
		main()
	}
	os.Exit(m.Run())
}

// eeatsim runs the command with args and returns its stdout and exit
// code. A run that outlives two minutes is killed, so a hang fails the
// test instead of stalling it.
func eeatsim(t *testing.T, args ...string) (string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EEATSIM_RUN_MAIN=1")
	out, err := cmd.Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

func TestPrintResultWithoutL1Hits(t *testing.T) {
	var buf bytes.Buffer
	printResult(&buf, xlate.Result{Instructions: 2, MemRefs: 1, L1Misses: 1}, "mcf", false)
	if strings.Contains(buf.String(), "NaN") {
		t.Errorf("report prints NaN when no reference hit in L1:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "no L1 TLB hits") {
		t.Errorf("report does not say there were no L1 hits:\n%s", buf.String())
	}
}

// The report attributes L1 hits to every page size, 1 GB included, and
// prints the Lite controller's run-wide action counts once, not on
// each monitored TLB's row.
func TestPrintResultSharesAndLiteCounts(t *testing.T) {
	res := xlate.Result{
		Instructions: 1000, MemRefs: 100,
		Hits4K: 50, Hits2M: 25, Hits1G: 20, HitsRange: 5,
		LiteLookupShare: [][]float64{{0, 0, 1}, {0, 0.5, 0.5}, {0.8, 0, 0.2}},
		LiteResizes:     3, LiteReactivations: 1,
	}
	var buf bytes.Buffer
	printResult(&buf, res, "mcf", false)
	out := buf.String()
	if !strings.Contains(out, "L1 hit attribution   4KB 50.0%  2MB 25.0%  1GB 20.0%  range 5.0%") {
		t.Errorf("hit attribution does not give the 1 GB share or does not add up to 100%%:\n%s", out)
	}
	if n := strings.Count(out, "3 resizes, 1 reactivations"); n != 1 {
		t.Errorf("Lite action counts printed %d times, want once:\n%s", n, out)
	}
	for _, row := range []string{
		"    TLB 0: 1w 0.0%  2w 0.0%  4w 100.0%\n",
		"    TLB 1: 1w 0.0%  2w 50.0%  4w 50.0%\n",
		"    TLB 2: 1w 80.0%  2w 0.0%  4w 20.0%\n",
	} {
		if !strings.Contains(out, row) {
			t.Errorf("report lacks the Lite row %q:\n%s", row, out)
		}
	}
}

func TestReportShowsScaledFootprint(t *testing.T) {
	out, code := eeatsim(t, "-workload", "mcf", "-scale", "0.1", "-instrs", "1")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if first, _, _ := strings.Cut(out, "\n"); !strings.Contains(first, "mcf (170 MB footprint)") {
		t.Errorf("source line %q does not show mcf's 1700 MB footprint scaled by 0.1", first)
	}
}

func TestRemoteRejectsLocalOnlyFlags(t *testing.T) {
	for _, flags := range [][]string{{"-audit"}, {"-inject", "flip-pfn"}} {
		// The guard runs before any request, so the address is never dialled.
		args := append([]string{"-remote", "http://127.0.0.1:1"}, flags...)
		if _, code := eeatsim(t, args...); code != 2 {
			t.Errorf("eeatsim %s: exit %d, want 2", strings.Join(args, " "), code)
		}
	}
}

// TestReplayZeroInstructionTraceIsUsageError replays a recorded trace
// whose references carry no instructions: it could never fill the
// budget, so eeatsim must refuse it with exit 2 instead of spinning.
func TestReplayZeroInstructionTraceIsUsageError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idle.xltrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := xlate.WriteTrace(f, []xlate.Ref{{VA: 1 << 30}, {VA: 1<<30 + 64}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if out, code := eeatsim(t, "-replay", path, "-config", "THP", "-instrs", "1000"); code != 2 {
		t.Errorf("eeatsim -replay of a zero-instruction trace: exit %d, want 2\n%s", code, out)
	}
}
