package trace

// The rejection-inversion constants and loop below are a port of
// math/rand's Zipf generator (Copyright 2009 The Go Authors, BSD-style
// license; W. Hormann and G. Derflinger, "Rejection-Inversion to
// Generate Variates from Monotone Discrete Distributions"). Every
// floating-point expression keeps the stdlib's shape, so that a
// compiler fusing x*y+z into an FMA fuses it the same way in both, and
// the sampler returns the stdlib's rank for every draw.

import (
	"math"
	"math/rand"
)

// guideBuckets is the number of guide-table buckets over the uniform
// draw r ∈ [0,1); bucket b covers [b/guideBuckets, (b+1)/guideBuckets).
const guideBuckets = 1024

// guideGuard widens a bucket's edge values of x before classification,
// relative to x+v (the exp result hinv subtracts v from). It only has
// to cover the non-monotonicity of the computed hinv — a few ulps of
// math.Exp and math.Log, ~1e-14 relative — so 1e-9 leaves a margin of
// several orders of magnitude.
const guideGuard = 1e-9

// guideImpure marks a bucket whose draws need the exact step. Zero
// marks an unclassified bucket; a pure bucket holds its rank plus one.
const guideImpure = -1

// zipfSampler draws ranks k ∈ [0, imax] with P(k) ∝ (v+k)^(-s),
// returning exactly the rank (*rand.Zipf).Uint64 returns on the same
// *rand.Rand, draw for draw.
//
// The stdlib evaluates hinv — one math.Exp and one math.Log — on every
// draw. x = hinv(hxm + r*hx0minusHxm) falls monotonically as r rises, so
// over most of [0,1) a whole guide bucket maps to a single rank k that
// the first acceptance test (k-x <= s) accepts. Such a "pure" bucket
// returns k straight from the table. Any other bucket runs the ported
// exact step for the same r, rejecting and redrawing as the stdlib
// does, so the RNG is consumed identically.
//
// Buckets are classified lazily on first visit, keeping construction
// O(1): hinv at the two bucket edges, each widened by guideGuard, must
// both round to the same k and lie inside [k-s, k+0.5).
type zipfSampler struct {
	r            *rand.Rand
	v            float64
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64
	guide        [guideBuckets]int32
}

func (z *zipfSampler) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipfSampler) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// newZipfSampler mirrors rand.NewZipf(r, s, v, imax); it requires
// s > 1 and v >= 1.
func newZipfSampler(r *rand.Rand, s float64, v float64, imax uint64) *zipfSampler {
	z := &zipfSampler{r: r, v: v, q: s}
	imaxf := float64(imax)
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(imaxf + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	return z
}

// next returns the next rank.
func (z *zipfSampler) next() uint64 {
	for {
		r := z.r.Float64() // r on [0,1)
		b := int(r*guideBuckets) & (guideBuckets - 1)
		g := z.guide[b]
		if g == 0 {
			g = z.classify(b)
			z.guide[b] = g
		}
		if g > 0 {
			return uint64(g - 1)
		}
		ur := z.hxm + r*z.hx0minusHxm
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.s {
			return uint64(k)
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			return uint64(k)
		}
	}
}

// classify returns bucket b's guide entry: its rank plus one when
// every r in the bucket maps to that rank and passes the first
// acceptance test, guideImpure otherwise.
func (z *zipfSampler) classify(b int) int32 {
	// ur falls as r rises, and hinv rises with ur: the bucket's low
	// edge bounds x from above and its high edge from below.
	r := float64(b) / guideBuckets
	hi := z.hinv(z.hxm + r*z.hx0minusHxm)
	r = float64(b+1) / guideBuckets
	lo := z.hinv(z.hxm + r*z.hx0minusHxm)
	hi += guideGuard * (hi + z.v)
	lo -= guideGuard * (lo + z.v)
	k := math.Floor(hi + 0.5)
	// The negated range test also rejects NaN and ±Inf edges.
	if !(k >= 0 && k < math.MaxInt32) || math.Floor(lo+0.5) != k || k-lo > z.s {
		return guideImpure
	}
	return int32(k) + 1
}
