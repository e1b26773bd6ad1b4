package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"xlate/internal/core"
	"xlate/internal/exper"
)

func TestValidLines(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"empty", "", ""},
		{"one line", "{\"a\":1}\n", "{\"a\":1}\n"},
		{"torn tail dropped", "{\"a\":1}\n{\"b\":", "{\"a\":1}\n"},
		{"unterminated final line dropped", "{\"a\":1}\n{\"b\":2}", "{\"a\":1}\n"},
		{"corrupt line ends the prefix", "{\"a\":1}\nnot json\n{\"c\":3}\n", "{\"a\":1}\n"},
		{"all torn", "{\"a\"", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := ValidLines([]byte(c.in)); string(got) != c.want {
				t.Errorf("ValidLines(%q) = %q, want %q", c.in, got, c.want)
			}
		})
	}
}

// journalLines parses the on-disk checkpoint and fails on any malformed
// line — the invariant the atomic-publish scheme maintains.
func journalLines(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatalf("journal does not end with a newline: %q", data)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	for i, l := range lines {
		if !json.Valid(l) {
			t.Fatalf("journal line %d is not valid JSON: %q", i, l)
		}
	}
	return lines
}

func TestJournalAppendPublishesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "suite.ckpt")
	opt := exper.Options{Instrs: 1, Scale: 1, Seed: 1}

	j, err := openJournal(path, false, opt)
	if err != nil {
		t.Fatal(err)
	}
	// After open, the file already holds the header.
	if lines := journalLines(t, path); len(lines) != 1 {
		t.Fatalf("fresh journal has %d lines, want the header only", len(lines))
	}
	if err := j.append("cell-a", core.Result{Instructions: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.append("cell-b", core.Result{Instructions: 2}); err != nil {
		t.Fatal(err)
	}
	if lines := journalLines(t, path); len(lines) != 3 {
		t.Fatalf("journal has %d lines, want header + 2 cells", len(lines))
	}
	// No temp files left behind by the rename dance.
	leftover, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftover) != 0 {
		t.Errorf("publish left temp files behind: %v", leftover)
	}
}

// TestJournalHealsTornTailOnResume is the failure the hardening exists
// for: a crash mid-write leaves a torn trailing line; resuming must keep
// the valid prefix and never glue new appends onto the partial line.
func TestJournalHealsTornTailOnResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "suite.ckpt")
	opt := exper.Options{Instrs: 1, Scale: 1, Seed: 1}

	j, err := openJournal(path, false, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append("cell-a", core.Result{Instructions: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.append("cell-b", core.Result{Instructions: 2}); err != nil {
		t.Fatal(err)
	}

	// Simulate the torn write a crash can leave (pre-hardening journals,
	// or reordered writes below the rename): chop the tail mid-line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := openJournal(path, true, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The torn cell-b line is dropped; header and cell-a survive, and
	// the healed journal is republished complete.
	lines := journalLines(t, path)
	if len(lines) != 2 || !bytes.Contains(lines[1], []byte("cell-a")) {
		t.Fatalf("healed journal = %d lines %q, want header + cell-a", len(lines), lines)
	}
	if err := j2.append("cell-c", core.Result{Instructions: 3}); err != nil {
		t.Fatal(err)
	}
	lines = journalLines(t, path)
	if len(lines) != 3 || !bytes.Contains(lines[2], []byte("cell-c")) {
		t.Fatalf("append after heal = %q, want cell-c as a clean third line", lines)
	}
}

// TestResumeSurvivesTornCheckpointTail runs the heal end-to-end through
// the suite: cancel a checkpointed run, tear the journal's tail, and
// resume — the run completes with output byte-identical to an
// uninterrupted one.
func TestResumeSurvivesTornCheckpointTail(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "suite.ckpt")
	exps := testExperiments()
	want := sequentialRender(t, exps)
	opts := exper.Options{Instrs: 1, Scale: 1, Seed: 1}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s1 := New(Config{Workers: 2, Checkpoint: ckpt, Options: opts})
	var once sync.Once
	var done atomic.Int32 // the hook runs on worker goroutines
	s1.onCellDone = func(string) {
		if done.Add(1) >= 2 {
			once.Do(cancel)
		}
	}
	if _, err := s1.Run(ctx, exps); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled", err)
	}

	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{Workers: 2, Checkpoint: ckpt, Resume: true, Options: opts})
	results, err := s2.Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(t, results); got != want {
		t.Errorf("resume after torn tail differs from sequential:\n--- resumed ---\n%s\n--- sequential ---\n%s", got, want)
	}
}

// TestStreamJournalAppendAndHeal covers the streaming journal the
// cluster coordinator builds on: appends land as complete lines, a torn
// tail is truncated away on reopen, and appends after the heal start on
// a clean line boundary.
func TestStreamJournalAppendAndHeal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.jsonl")

	s, err := OpenStream(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte(`{"b":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{\"a\":1}\n{\"b\":2}\n" {
		t.Fatalf("stream contents = %q", data)
	}

	// Tear the tail mid-line, reopen keeping only the validated prefix,
	// and append: the torn bytes must be gone, not glued onto.
	torn := append(append([]byte{}, data...), []byte(`{"c":`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	keep := int64(len(ValidLines(torn)))
	s2, err := OpenStream(path, keep)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Append([]byte(`{"d":4}`)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{\"a\":1}\n{\"b\":2}\n{\"d\":4}\n" {
		t.Fatalf("healed stream contents = %q", data)
	}
}

// TestPreloadSkipsExecution pins Config.Preload: preloaded cells never
// reach the executor, and the rendered output is byte-identical to a
// full run — the takeover-resume contract the cluster journal relies on.
func TestPreloadSkipsExecution(t *testing.T) {
	exps := testExperiments()
	want := sequentialRender(t, exps)
	opts := exper.Options{Instrs: 1, Scale: 1, Seed: 1}

	// First run records every cell result.
	s1 := New(Config{Workers: 2, Options: opts})
	if _, err := s1.Run(context.Background(), exps); err != nil {
		t.Fatal(err)
	}
	preload := make(map[string]core.Result, len(s1.memo))
	for k, v := range s1.memo {
		preload[k] = v
	}
	if len(preload) == 0 {
		t.Fatal("first run memoized nothing")
	}

	executed := 0
	s2 := New(Config{
		Workers: 2, Options: opts, Preload: preload,
		Execute: func(ctx context.Context, j exper.Job) (core.Result, error) {
			executed++
			return exper.ExecuteJobContext(ctx, j)
		},
	})
	results, err := s2.Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	if executed != 0 {
		t.Errorf("%d cells executed despite a complete preload", executed)
	}
	if got := renderAll(t, results); got != want {
		t.Errorf("preloaded run differs from sequential:\n--- preloaded ---\n%s\n--- sequential ---\n%s", got, want)
	}
}

// TestCancelledCellCarriesTypedError pins the shape of a cancellation
// surfacing through runCell: a *RunError whose chain reaches
// context.Canceled, with the cell identity attached.
func TestCancelledCellCarriesTypedError(t *testing.T) {
	s := New(Config{Retries: 3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	j := tinyJob("alpha", core.CfgTHP, 7)
	_, rerr := s.runCell(ctx, plannedJob{key: jobKey(j), job: j})
	if rerr == nil {
		t.Fatal("cancelled cell should fail")
	}
	if !errors.Is(rerr, context.Canceled) {
		t.Fatalf("RunError chain = %v, want context.Canceled in it", rerr)
	}
	if rerr.Workload != "alpha" || rerr.Config != "THP" {
		t.Errorf("RunError identity = %s/%s", rerr.Workload, rerr.Config)
	}
	// Cancellation must stop the retry loop: the first attempt's seed is
	// the job's own, so a retry would have replaced it.
	if rerr.Seed != j.Seed {
		t.Errorf("cancelled cell retried (seed %d, want the job's %d)", rerr.Seed, j.Seed)
	}
}
