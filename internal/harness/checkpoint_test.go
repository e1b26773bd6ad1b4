package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xlate/internal/core"
	"xlate/internal/exper"
)

// journalLines parses the on-disk checkpoint and fails on any malformed
// line — the invariant append+fsync with rollback maintains.
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

var testOpt = exper.Options{Instrs: 1, Scale: 1, Seed: 1}

func openCheckpointJournal(t *testing.T, path string) (*Journal[checkpointCell], []checkpointCell) {
	t.Helper()
	j, cells, err := OpenJournal(path, checkpointFormat, testOpt, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return j, cells
}

func appendCell(t *testing.T, j *Journal[checkpointCell], key string, instrs uint64) {
	t.Helper()
	if err := j.Append(checkpointCell{Key: key, Result: &core.Result{Instructions: instrs}}); err != nil {
		t.Fatal(err)
	}
}

// TestJournalAppendPublishesAtomically: every append lands as one
// complete line, the file is valid JSONL after each one, and the
// append path leaves no side files behind.
func TestJournalAppendPublishesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "suite.ckpt")

	j, _ := openCheckpointJournal(t, path)
	defer j.Close()
	// After open, the file already holds the header.
	if lines := journalLines(t, path); len(lines) != 1 {
		t.Fatalf("fresh journal has %d lines, want the header only", len(lines))
	}
	appendCell(t, j, "cell-a", 1)
	appendCell(t, j, "cell-b", 2)
	if lines := journalLines(t, path); len(lines) != 3 {
		t.Fatalf("journal has %d lines, want header + 2 cells", len(lines))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("journal directory holds %d entries, want only the journal", len(entries))
	}
}

// TestJournalConcurrentAppends: workers append concurrently, and every
// record lands as its own complete line.
func TestJournalConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.ckpt")
	j, _ := openCheckpointJournal(t, path)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				if err := j.Append(checkpointCell{Key: key, Result: &core.Result{Instructions: uint64(i)}}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	j.Close()
	j2, cells := openCheckpointJournal(t, path)
	defer j2.Close()
	seen := make(map[string]bool)
	for _, c := range cells {
		seen[c.Key] = true
	}
	if len(cells) != 100 || len(seen) != 100 {
		t.Fatalf("reopened %d cells (%d distinct), want 100", len(cells), len(seen))
	}
}

// TestJournalHealsTornTailOnResume is the failure the journal's loader
// exists for: a crash mid-write leaves a torn trailing line; resuming
// must keep the valid prefix and never glue new appends onto the
// partial line.
func TestJournalHealsTornTailOnResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.ckpt")

	j, _ := openCheckpointJournal(t, path)
	appendCell(t, j, "cell-a", 1)
	appendCell(t, j, "cell-b", 2)
	j.Close()

	// Simulate the torn write a crash can leave: chop the tail mid-line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, cells := openCheckpointJournal(t, path)
	defer j2.Close()
	if len(cells) != 1 || cells[0].Key != "cell-a" || cells[0].Result.Instructions != 1 {
		t.Fatalf("resumed cells = %+v, want cell-a only", cells)
	}
	// The torn cell-b line is truncated away; header and cell-a survive.
	lines := journalLines(t, path)
	if len(lines) != 2 || !bytes.Contains(lines[1], []byte("cell-a")) {
		t.Fatalf("healed journal = %d lines %q, want header + cell-a", len(lines), lines)
	}
	appendCell(t, j2, "cell-c", 3)
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

// TestStreamJournalAppendAndHeal pins the journal's bytes: appends land
// as complete lines after the header, a torn tail is truncated away on
// reopen, and appends after the heal start on a clean line boundary.
func TestStreamJournalAppendAndHeal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.jsonl")
	hdr := `{"version":2,"kind":"suite","instrs":1,"scale":1,"seed":1}` + "\n"
	line := func(key string, instrs uint64) string {
		t.Helper()
		b, err := json.Marshal(checkpointCell{Key: key, Result: &core.Result{Instructions: instrs}})
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	a, b, d := line("a", 1), line("b", 2), line("d", 4)
	contents := func() string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	j, _ := openCheckpointJournal(t, path)
	appendCell(t, j, "a", 1)
	appendCell(t, j, "b", 2)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := contents(); got != hdr+a+b {
		t.Fatalf("journal contents = %q", got)
	}

	// Tear the tail mid-line, reopen, and append: the torn bytes must be
	// gone, not glued onto.
	if err := os.WriteFile(path, []byte(hdr+a+b+`{"key":"c",`), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, cells := openCheckpointJournal(t, path)
	if len(cells) != 2 {
		t.Fatalf("reopen replayed %d cells, want 2", len(cells))
	}
	appendCell(t, j2, "d", 4)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := contents(); got != hdr+a+b+d {
		t.Fatalf("healed journal contents = %q", got)
	}
}

// TestCheckpointRule drives the journal's heal-or-refuse rule through
// the suite's own resume path: a torn tail heals and the run completes
// byte-identical to a sequential one; damage above a valid record is
// ErrJournalCorrupt; another version, vocabulary, or set of options is
// ErrJournalMismatch — and a refused checkpoint is left untouched.
func TestCheckpointRule(t *testing.T) {
	exps := []exper.Experiment{cellExp("one", []exper.Job{
		tinyJob("alpha", core.CfgTHP, 7), tinyJob("beta", core.CfgRMM, 7),
	})}
	want := sequentialRender(t, exps)
	hdr := `{"version":2,"kind":"suite","instrs":1,"scale":1,"seed":1}` + "\n"
	key := jobKey(tinyJob("alpha", core.CfgTHP, 7))
	res, err := exper.ExecuteJobContext(context.Background(), tinyJob("alpha", core.CfgTHP, 7))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(checkpointCell{Key: key, Result: &res})
	if err != nil {
		t.Fatal(err)
	}
	cell := string(rec) + "\n"

	cases := []struct {
		name    string
		content string
		wantErr error
		resumed int // cells the resumed run must not execute
	}{
		{name: "clean", content: hdr + cell, resumed: 1},
		{name: "torn tail", content: hdr + cell + cell[:len(cell)/2], resumed: 1},
		{name: "garbage tail", content: hdr + cell + "%%not json%%\n", resumed: 1},
		{name: "torn header", content: hdr[:len(hdr)/2]},
		{name: "garbage above a cell record", content: hdr + "%%garbage%%\n" + cell, wantErr: ErrJournalCorrupt},
		{name: "record missing its result above a cell record", content: hdr + `{"key":"x"}` + "\n" + cell, wantErr: ErrJournalCorrupt},
		{name: "options mismatch", content: strings.Replace(hdr, `"seed":1`, `"seed":2`, 1) + cell, wantErr: ErrJournalMismatch},
		{name: "version-1 checkpoint", content: `{"version":1,"instrs":1,"scale":1,"seed":1}` + "\n" + cell, wantErr: ErrJournalMismatch},
		{name: "cluster journal", content: strings.Replace(hdr, `"suite"`, `"cluster"`, 1) + cell, wantErr: ErrJournalMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "suite.ckpt")
			if err := os.WriteFile(ckpt, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			var executed atomic.Int32
			s := New(Config{
				Workers: 2, Checkpoint: ckpt, Resume: true, Options: testOpt,
				Execute: func(ctx context.Context, j exper.Job) (core.Result, error) {
					executed.Add(1)
					return exper.ExecuteJobContext(ctx, j)
				},
			})
			results, err := s.Run(context.Background(), exps)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("resume error = %v, want %v", err, tc.wantErr)
				}
				if data, _ := os.ReadFile(ckpt); string(data) != tc.content {
					t.Errorf("refused checkpoint was modified: %q", data)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := renderAll(t, results); got != want {
				t.Errorf("resumed output differs from sequential:\n--- resumed ---\n%s\n--- sequential ---\n%s", got, want)
			}
			if n := int(executed.Load()); n != 2-tc.resumed {
				t.Errorf("resume executed %d cells, want %d", n, 2-tc.resumed)
			}
		})
	}
}

var errInjected = errors.New("injected write failure")

// failNextWrite makes the journal's next write fail partway through:
// the first half of the bytes reach the file, then the write errors —
// what a full disk or an I/O error mid-record leaves behind. With
// failTruncate, the rollback fails too.
func failNextWrite(j *Journal[checkpointCell], failTruncate bool) {
	write := j.write
	armed := true
	j.write = func(b []byte) (int, error) {
		if !armed {
			return write(b)
		}
		armed = false
		n, _ := write(b[:len(b)/2])
		return n, errInjected
	}
	if failTruncate {
		j.truncate = func(int64) error { return errInjected }
	}
}

// TestJournalAppendRollsBackFailedWrite: a write that fails partway
// through a record must not leave its partial bytes in the file, or
// the next record would glue onto them and the next open would refuse
// the whole journal as corrupt.
func TestJournalAppendRollsBackFailedWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.ckpt")
	j, _ := openCheckpointJournal(t, path)
	appendCell(t, j, "cell-a", 1)
	failNextWrite(j, false)
	err := j.Append(checkpointCell{Key: "cell-b", Result: &core.Result{Instructions: 2}})
	if !errors.Is(err, errInjected) {
		t.Fatalf("failed append = %v, want the write error", err)
	}
	if lines := journalLines(t, path); len(lines) != 2 {
		t.Fatalf("journal after a failed append = %d lines %q, want header + cell-a", len(lines), lines)
	}
	appendCell(t, j, "cell-c", 3)
	j.Close()

	j2, cells := openCheckpointJournal(t, path)
	defer j2.Close()
	if len(cells) != 2 || cells[0].Key != "cell-a" || cells[1].Key != "cell-c" {
		t.Fatalf("reopened cells = %+v, want cell-a and cell-c", cells)
	}
}

// TestJournalRefusesAfterFailedRollback: when even the rollback fails,
// the file may end in a partial line, so every later append must fail
// rather than glue a record onto it.
func TestJournalRefusesAfterFailedRollback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.ckpt")
	j, _ := openCheckpointJournal(t, path)
	defer j.Close()
	failNextWrite(j, true)
	if err := j.Append(checkpointCell{Key: "cell-a", Result: &core.Result{}}); !errors.Is(err, errInjected) {
		t.Fatalf("failed append = %v, want the write error", err)
	}
	for i := 0; i < 2; i++ {
		if err := j.Append(checkpointCell{Key: "cell-b", Result: &core.Result{}}); !errors.Is(err, errInjected) {
			t.Fatalf("append %d after a failed rollback = %v, want the rollback error", i, err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("cell-b")) {
		t.Errorf("an append after a failed rollback reached the file: %q", data)
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
