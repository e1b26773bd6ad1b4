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
