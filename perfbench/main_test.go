package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// inRepoRoot runs f from the repository root, where run.sh runs perfbench.
func inRepoRoot(t *testing.T, f func()) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	f()
}

func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return r
}

// TestRunPrintsEveryMetric runs the shortest workload at the default
// seed, untraced and traced, and checks the result line: correct, no
// failed operation, and exactly the metrics of BENCHMARK.json.
func TestRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the replay-walk workload")
	}
	for _, traced := range []string{"0", "1"} {
		var out, errs bytes.Buffer
		inRepoRoot(t, func() {
			if code := run([]string{"--workload", "replay-walk", "--seed", "1", "--seconds", "1", "--trace", traced}, &out, &errs); code != 0 {
				t.Fatalf("--trace %s: exit %d: %s", traced, code, errs.String())
			}
		})
		r := lastLine(t, out.String())
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("--trace %s: correct=%v attempted=%d failed=%d\n%s", traced, r.Correct, r.Attempted, r.Failed, out.String())
		}
		want := layerMetrics()
		if traced == "0" {
			want = endToEnd
		}
		if len(r.Metrics) != len(want) {
			t.Errorf("--trace %s: %d metrics, want %d", traced, len(r.Metrics), len(want))
		}
		for _, m := range want {
			v, ok := r.Metrics[m.name]
			if !ok || v.Unit != m.unit {
				t.Errorf("--trace %s: metric %s missing or with unit %q", traced, m.name, v.Unit)
			}
			if traced == "0" && !(v.Value > 0) {
				t.Errorf("end-to-end metric %s = %g, want > 0", m.name, v.Value)
			}
		}
		if traced == "1" && !strings.Contains(out.String(), "tracing overhead") {
			t.Errorf("traced run does not report the tracing overhead:\n%s", out.String())
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig2", "--seconds", "0"},
		{"--workload", "fig2", "--trace", "2"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d with output %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}
