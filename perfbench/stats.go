package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricName is the shape every metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// tailLadder lists the percentiles a summary may report as its tail,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile of tailLadder that has
// at least minBeyond of n samples beyond it, or false when n is too
// small for any of them.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if math.Floor(float64(n)*(100-p)/100+1e-9) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// quantile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 50) }

// summary is how every end-to-end metric is printed: its sample count,
// median, and the tail on the side where the metric gets worse.
type summary struct {
	n       int
	median  float64
	hasTail bool
	tailP   float64 // the percentile reported as the tail
	tail    float64
}

// summarize reduces samples; for a higher-is-better metric the bad
// tail is the low end, so the (100-p)-th percentile is reported.
func summarize(xs []float64, higherBetter bool) summary {
	s := summary{n: len(xs), median: median(xs)}
	if p, ok := tailPercentile(len(xs)); ok {
		s.hasTail = true
		s.tailP = p
		if higherBetter {
			s.tailP = math.Round((100-p)*10) / 10
		}
		s.tail = quantile(xs, s.tailP)
	}
	return s
}

func (s summary) String() string {
	if !s.hasTail {
		return fmt.Sprintf("n=%d median=%.6g tail=none (fewer than %d samples beyond p50)", s.n, s.median, minBeyond)
	}
	return fmt.Sprintf("n=%d median=%.6g p%g=%.6g", s.n, s.median, s.tailP, s.tail)
}
