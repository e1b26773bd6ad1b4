package trace

import (
	"fmt"
	"math/rand"
	"testing"

	"xlate/internal/addr"
)

// compareZipf draws from zipfSampler and math/rand's Zipf on two
// generators seeded alike and fails on the first rank that differs, or
// if the two generators end up in different states (a different number
// of rejections behind identical ranks).
func compareZipf(tb testing.TB, seed int64, s float64, imax uint64, draws int) {
	tb.Helper()
	wantRNG, gotRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	want := rand.NewZipf(wantRNG, s, 1, imax)
	got := newZipfSampler(gotRNG, s, 1, imax)
	for i := 0; i < draws; i++ {
		if w, g := want.Uint64(), got.next(); w != g {
			tb.Fatalf("s=%v imax=%d seed=%d: draw %d is rank %d, stdlib %d", s, imax, seed, i, g, w)
		}
	}
	if w, g := wantRNG.Int63(), gotRNG.Int63(); w != g {
		tb.Fatalf("s=%v imax=%d seed=%d: generator state diverged after %d draws", s, imax, seed, draws)
	}
}

func FuzzZipfSampler(f *testing.F) {
	f.Add(int64(1), 1.35, uint64(1<<16))
	f.Add(int64(2), 2.6, uint64(511))
	f.Add(int64(3), 1.0001, uint64(1<<40))
	f.Add(int64(4), 50.0, uint64(0))
	f.Add(int64(5), 3.0, ^uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, s float64, imax uint64) {
		if !(s > 1 && s <= 50) {
			t.Skip("exponent outside (1, 50]")
		}
		compareZipf(t, seed, s, imax, 2000)
	})
}

// TestZipfGuideCoverage pins that the guide table actually answers
// draws: at the catalog's hottest and flattest exponents most of the
// uniform draw's mass lands in pure buckets.
func TestZipfGuideCoverage(t *testing.T) {
	for _, tc := range []struct{ s, min float64 }{{1.35, 0.6}, {2.6, 0.9}} {
		z := newZipfSampler(rand.New(rand.NewSource(1)), tc.s, 1, 1<<16)
		for b := range z.guide {
			z.guide[b] = z.classify(b)
		}
		pure := 0
		for _, g := range z.guide {
			if g > 0 {
				pure++
			}
		}
		if mass := float64(pure) / guideBuckets; mass < tc.min {
			t.Errorf("s=%v: pure-bucket mass %.3f, want >= %.2f", tc.s, mass, tc.min)
		}
	}
}

// TestZipfStreamMatchesReference replays the Zipf stream's rank-to-VA
// mapping as it stood with math/rand's Zipf and an unconditional modulo
// per reduction, over a page-multiple window, a window with a partial
// last chunk, and one past the chunk-permutation cap.
func TestZipfStreamMatchesReference(t *testing.T) {
	for _, w := range []Window{
		testWin,
		{Base: 1 << 40, Size: 5<<20 + 12345},
		{Base: 1 << 44, Size: 4 << 40},
	} {
		const s, seed = 1.2, 9
		z := Zipf(w, s, seed).(*zipf)
		rng := rand.New(rand.NewSource(seed))
		rz := rand.NewZipf(rng, s, 1, z.pages-1)
		rng.Shuffle(len(z.chunkPerm), func(i, j int) {})
		rng.Shuffle(chunkPages, func(i, j int) {})
		for i := 0; i < 20000; i++ {
			rank := rz.Uint64()
			chunk := uint64(z.chunkPerm[(rank/chunkPages)%uint64(len(z.chunkPerm))])
			inner := uint64(z.innerPerm[rank%chunkPages])
			page := (chunk*chunkPages + inner) % z.pages
			off := page<<addr.Shift4K + uint64(rng.Int63n(addr.Bytes4K))
			if off >= w.Size {
				off %= w.Size
			}
			if got, want := z.NextVA(), w.Base+addr.VA(off); got != want {
				t.Fatalf("window %+v: ref %d = %#x, reference %#x", w, i, uint64(got), uint64(want))
			}
		}
	}
}

func BenchmarkZipfNext(b *testing.B) {
	for _, s := range []float64{1.35, 2.6} {
		b.Run(fmt.Sprintf("s=%v", s), func(b *testing.B) {
			z := newZipfSampler(rand.New(rand.NewSource(1)), s, 1, 1<<16)
			var sink uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += z.next()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/draw")
			_ = sink
		})
		b.Run(fmt.Sprintf("s=%v/stdlib", s), func(b *testing.B) {
			z := rand.NewZipf(rand.New(rand.NewSource(1)), s, 1, 1<<16)
			var sink uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += z.Uint64()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/draw")
			_ = sink
		})
	}
}
