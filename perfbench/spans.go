package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by perfbench around
// the public function it calls. Parent 0 marks a root.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_us"` // since the tracer started
	End    float64            `json:"end_us"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how untraced phases run: every method is
// a no-op on nil.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// start opens a span under parent and returns its id (0 when nil).
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: at})
	return len(t.spans)
}

// end closes span id and attaches attrs given as name, value pairs.
func (t *tracer) end(id int, attrs ...any) {
	if t == nil || id == 0 {
		return
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = at
	setAttrs(&t.spans[id-1], attrs)
}

// add records a span measured by the caller and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time, attrs ...any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: float64(start.Sub(t.t0).Nanoseconds()) / 1e3, End: float64(end.Sub(t.t0).Nanoseconds()) / 1e3})
	setAttrs(&t.spans[len(t.spans)-1], attrs)
	return len(t.spans)
}

func setAttrs(s *span, attrs []any) {
	for i := 0; i+1 < len(attrs); i += 2 {
		if s.Attrs == nil {
			s.Attrs = make(map[string]float64)
		}
		s.Attrs[attrs[i].(string)] = toFloat(attrs[i+1])
	}
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int:
		return float64(x)
	case uint64:
		return float64(x)
	case bool:
		if x {
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("span attribute of type %T", v))
}

// named returns the closed spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// durationsMS returns the durations of the spans called name in ms.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, s.dur()/1e3)
	}
	return out
}

// totalUS sums the durations of the spans called name, and of the
// attribute attr over them.
func (t *tracer) totalUS(name, attr string) (us, attrSum float64) {
	for _, s := range t.named(name) {
		us += s.dur()
		attrSum += s.Attrs[attr]
	}
	return us, attrSum
}

// selfTimes returns, per span name, the count, total duration and self
// time in µs. Self time is a span's duration minus the part of its
// interval its children cover (children of one parent may overlap when
// they ran on different workers, so their union is subtracted).
func (t *tracer) selfTimes() map[string][3]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string][3]float64)
	for _, s := range t.spans {
		c := kids[s.ID]
		sort.Slice(c, func(i, j int) bool { return c[i].Start < c[j].Start })
		covered, reach := 0.0, s.Start
		for _, k := range c {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		v := out[s.Name]
		v[0]++
		v[1] += s.dur()
		v[2] += s.dur() - covered
		out[s.Name] = v
	}
	return out
}

// printSelfTimes writes the per-name span table, largest total first.
func (t *tracer) printSelfTimes(w io.Writer) {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]][1] > st[names[j]][1] })
	fmt.Fprintf(w, "%-24s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		v := st[n]
		fmt.Fprintf(w, "%-24s %8.0f %12.3f %12.3f\n", n, v[0], v[1]/1e3, v[2]/1e3)
	}
}

// write stores the spans as JSON lines, one span a line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
