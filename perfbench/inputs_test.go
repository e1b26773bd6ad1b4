package main

import (
	"bytes"
	"reflect"
	"testing"
)

func TestSimSeedDependsOnlyOnTheSeed(t *testing.T) {
	if simSeed(1) != simSeed(1) {
		t.Error("the same seed gave different simulation seeds")
	}
	seen := make(map[int64]int64)
	for s := int64(0); s < 200; s++ {
		v := simSeed(s)
		if v <= 0 {
			t.Errorf("simSeed(%d) = %d; workloads need a positive seed", s, v)
		}
		if prev, dup := seen[v]; dup {
			t.Errorf("seeds %d and %d give the same simulation seed", prev, s)
		}
		seen[v] = s
	}
}

func TestServeInputsAreSeeded(t *testing.T) {
	a, err := makeServeInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeServeInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a.round(3), b.round(3)) {
		t.Error("the same seed gave different serve inputs")
	}
	c, err := makeServeInputs(2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seed == c.Seed {
		t.Error("different seeds gave the same simulation seed")
	}
	for i := range a.Traces {
		if bytes.Equal(a.Traces[i], c.Traces[i]) {
			t.Errorf("different seeds recorded the same trace %d", i)
		}
	}
	if reflect.DeepEqual(a.round(0), c.round(0)) {
		t.Error("different seeds gave the same request order")
	}
	if reflect.DeepEqual(a.round(0), a.round(1)) {
		t.Error("two rounds of one seed gave the same request order")
	}
}

// TestServeRepeatsFollowFinishedOriginals checks the request sequences:
// every distinct cell is an original exactly once, and every repeat
// names the position of its original at least repeatGap requests
// earlier, which the sending client waits for — so the repeat is a
// cache hit, not a singleflight join.
func TestServeRepeatsFollowFinishedOriginals(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		in := serveInputs{order: seed}
		for n := 0; n < 4; n++ {
			seq := in.round(n)
			originals := make(map[string]int)
			repeats := 0
			for i, r := range seq {
				if !r.Repeat {
					if _, dup := originals[r.label()]; dup {
						t.Fatalf("seed %d round %d: %s requested as an original twice", seed, n, r.label())
					}
					originals[r.label()] = i
					continue
				}
				repeats++
				at, ok := originals[r.label()]
				if !ok || r.Of != at || i-at < repeatGap {
					t.Errorf("seed %d round %d: repeat of %s at %d names %d, want its original at least %d requests earlier", seed, n, r.label(), i, r.Of, repeatGap)
				}
			}
			if want := (len(serveModels) + len(traceSourceSpecs)) * 6; len(originals) != want {
				t.Errorf("seed %d round %d: %d distinct cells, want %d", seed, n, len(originals), want)
			}
			if share := float64(repeats) / float64(len(seq)); share < 0.2 || share > 0.3 {
				t.Errorf("seed %d round %d: %.2f of requests repeat, want about a quarter", seed, n, share)
			}
		}
	}
}
