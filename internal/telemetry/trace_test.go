package telemetry

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

func TestTracerJSONL(t *testing.T) {
	var b strings.Builder
	tr := NewTracer(&b, TraceJSONL, 1)
	track := tr.NextTrack()
	tr.Emit(track, 100, "tlb", "l1_miss", KV{"va", uint64(0x1000)})
	tr.Emit(track, 200, "os", "shootdown", KV{"start", uint64(0)}, KV{"pages", 4}, KV{"flush", true})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(strings.NewReader(b.String()))
	var lines int
	for sc.Scan() {
		lines++
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", lines, err, sc.Text())
		}
		if ev["ev"] == "" || ev["ref"] == nil {
			t.Errorf("line %d missing ev/ref: %s", lines, sc.Text())
		}
	}
	if lines != 2 {
		t.Fatalf("wrote %d lines, want 2", lines)
	}
	if tr.Events() != 2 {
		t.Fatalf("Events() = %d, want 2", tr.Events())
	}
}

// TestTracerChromeLoadable pins the acceptance criterion: the Chrome
// format output must parse as a JSON object with a traceEvents array
// whose entries carry the fields chrome://tracing requires.
func TestTracerChromeLoadable(t *testing.T) {
	var b strings.Builder
	tr := NewTracer(&b, TraceChrome, 1)
	for i := uint64(0); i < 3; i++ {
		tr.Emit(1, i*10, "tlb", "l1_miss", KV{"va", uint64(4096 * i)}, KV{"cfg", "RMM_Lite"})
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			TS   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("trace has %d events, want 3", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "l1_miss" || ev.Ph != "i" || ev.TS != 10 || ev.Args["cfg"] != "RMM_Lite" {
		t.Errorf("event fields wrong: %+v", ev)
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(&strings.Builder{}, TraceJSONL, 64)
	if !tr.ShouldSample(0) || !tr.ShouldSample(64) || !tr.ShouldSample(128) {
		t.Error("multiples of the cadence must sample")
	}
	if tr.ShouldSample(1) || tr.ShouldSample(63) {
		t.Error("non-multiples must not sample")
	}
	if tr.SampleEvery() != 64 {
		t.Errorf("SampleEvery = %d", tr.SampleEvery())
	}
}

func TestFormatForPath(t *testing.T) {
	for path, want := range map[string]TraceFormat{
		"out.json":  TraceChrome,
		"out.trace": TraceChrome,
		"out.jsonl": TraceJSONL,
		"out.log":   TraceJSONL,
		"out":       TraceJSONL,
	} {
		if got := FormatForPath(path); got != want {
			t.Errorf("FormatForPath(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestTracerEmitAfterCloseDropped(t *testing.T) {
	var b strings.Builder
	tr := NewTracer(&b, TraceChrome, 1)
	tr.Close()
	tr.Emit(1, 0, "tlb", "late")
	if !json.Valid([]byte(b.String())) {
		t.Fatalf("emit after close corrupted the trace: %s", b.String())
	}
}

func TestTracerEmitSpan(t *testing.T) {
	var chrome strings.Builder
	tr := NewTracer(&chrome, TraceChrome, 1)
	span := tr.NextSpan()
	tr.EmitSpan(3, 1000, 250, "cluster", "dispatch", KV{"span", span}, KV{"cell", "abc"})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"ph":"X"`, `"ts":1000`, `"dur":250`, `"tid":3`, `"span":1`} {
		if !strings.Contains(chrome.String(), want) {
			t.Errorf("Chrome span missing %s:\n%s", want, chrome.String())
		}
	}

	var jsonl strings.Builder
	tr2 := NewTracer(&jsonl, TraceJSONL, 1)
	tr2.EmitSpan(1, 5, 9, "cluster", "worker_exec")
	if err := tr2.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonl.String(), `"dur":9`) {
		t.Errorf("JSONL span missing dur:\n%s", jsonl.String())
	}
}

// TraceContext rides the per-cell dispatch path; its methods must stay
// allocation-free (the hotpath analyzer checks the same statically).
func TestTraceContextValidAllocFree(t *testing.T) {
	ctx := TraceContext{TraceID: "abc", ParentSpan: 7}
	if n := testing.AllocsPerRun(1000, func() { _ = ctx.Valid() }); n != 0 {
		t.Fatalf("TraceContext.Valid allocates %v per op, want 0", n)
	}
}
