package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	at := func(us int) time.Time { return tr.t0.Add(time.Duration(us) * time.Microsecond) }
	root := tr.add("root", 0, at(0), at(100))
	// Two overlapping children (two workers) covering 10..60, and one
	// covering 70..80: 60 µs of the root's 100 are covered.
	tr.add("cell", root, at(10), at(50))
	tr.add("cell", root, at(20), at(60))
	tr.add("cell", root, at(70), at(80))
	st := tr.selfTimes()
	if got := st["root"]; got[0] != 1 || got[1] != 100 || math.Abs(got[2]-40) > 1e-9 {
		t.Errorf("root count/total/self = %v, want 1/100/40", got)
	}
	if got := st["cell"]; got[0] != 3 || got[1] != 90 || got[2] != 90 {
		t.Errorf("cell count/total/self = %v, want 3/90/90", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start("x", 0)
	tr.end(id, "refs", 3)
	if id != 0 || tr.add("y", 0, time.Now(), time.Now()) != 0 {
		t.Error("a nil tracer handed out span ids")
	}
}
