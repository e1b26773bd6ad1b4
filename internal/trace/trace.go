// Package trace generates synthetic memory-reference streams.
//
// The paper drives its TLB simulator with Pin-instrumented SPEC2006,
// BioBench and PARSEC binaries. Those binaries (and 50-billion-
// instruction traces of them) are not reproducible here, so this package
// provides the substitution documented in DESIGN.md §1: composable,
// deterministic address-stream primitives from which
// internal/workloads builds a calibrated model of each benchmark's TLB
// behaviour. Only two properties of a reference stream matter to the
// translation path — which pages are touched in what temporal pattern,
// and how many instructions elapse per memory reference — and both are
// first-class here.
package trace

import (
	"fmt"
	"math/rand"

	"xlate/internal/addr"
)

// Ref is one memory reference: the virtual address accessed and the
// number of instructions the program executed to issue it (including
// the reference's own instruction). Instrs converts reference counts to
// the instruction counts that MPKI and Lite's intervals are defined
// over.
type Ref struct {
	VA     addr.VA
	Instrs uint64
}

// Stream produces an infinite sequence of virtual addresses.
type Stream interface {
	NextVA() addr.VA
}

// Window is the address interval [Base, Base+Size) a primitive operates
// on. It deliberately mirrors vm.Region without importing it.
type Window struct {
	Base addr.VA
	Size uint64
}

// Pages returns the number of 4 KB pages the window spans.
func (w Window) Pages() uint64 { return (w.Size + addr.Bytes4K - 1) / addr.Bytes4K }

func (w Window) validate() {
	if w.Size == 0 {
		panic("trace: empty window")
	}
}

// --- Primitives ---

type sequential struct {
	w      Window
	stride uint64
	off    uint64
}

// Sequential returns a stream that scans the window with the given byte
// stride, wrapping at the end — the streaming pattern of array sweeps
// (zeusmp, lbm, streaming phases of mummer).
func Sequential(w Window, stride uint64) Stream {
	w.validate()
	if stride == 0 {
		panic("trace: zero stride")
	}
	return &sequential{w: w, stride: stride}
}

func (s *sequential) NextVA() addr.VA {
	va := s.w.Base + addr.VA(s.off)
	s.off += s.stride
	if s.off >= s.w.Size {
		s.off = 0
	}
	return va
}

type uniform struct {
	w   Window
	rng *rand.Rand
}

// Uniform returns a stream of uniformly random addresses over the
// window — the cache-hostile pattern of canneal's random swaps and
// mcf's pointer-heavy network simplex.
func Uniform(w Window, seed int64) Stream {
	w.validate()
	return &uniform{w: w, rng: rand.New(rand.NewSource(seed))}
}

func (u *uniform) NextVA() addr.VA {
	return u.w.Base + addr.VA(uint64(u.rng.Int63n(int64(u.w.Size))))
}

// chunkPages is the 2 MB huge-page span in 4 KB pages; the Zipf
// rank-to-page mapping preserves locality at this granularity.
const chunkPages = 512

type zipf struct {
	w     Window
	rng   *rand.Rand
	z     *zipfSampler
	pages uint64
	// Two-level permutation: consecutive ranks stay inside the same
	// 2 MB chunk (inner permutation) and consecutive chunks of ranks
	// are scattered across the window (chunk permutation). Hot pages
	// are therefore scattered at 4 KB granularity for realistic set
	// conflicts, yet still *cluster* at 2 MB granularity — real
	// programs' hot data lives in a few hot huge pages, which is the
	// very locality transparent huge pages exploit. A flat random
	// permutation would make huge-page TLBs useless against any skewed
	// working set, contradicting the measured behaviour THP relies on.
	chunkPerm []uint32
	innerPerm []uint16
}

// Zipf returns a stream whose page popularity follows a Zipf
// distribution with exponent s > 1 over the window's 4 KB pages, with a
// uniformly random offset within the page. This is the workhorse for
// modeling working sets with skewed reuse (astar, omnetpp, xalancbmk).
//
// Ranks come from zipfSampler, which returns exactly the ranks
// math/rand's Zipf would on the same generator, so streams are
// unchanged. It answers most draws from a 1024-bucket guide table
// instead of an exp and a log per draw. Each bucket is classified on
// its first visit, from the bucket edges widened by a 1e-9 relative
// guard (see zipf.go).
func Zipf(w Window, s float64, seed int64) Stream {
	w.validate()
	if s <= 1 {
		panic(fmt.Sprintf("trace: zipf exponent %v must be > 1", s))
	}
	rng := rand.New(rand.NewSource(seed))
	pages := w.Pages()
	z := newZipfSampler(rng, s, 1, pages-1)
	nChunks := (pages + chunkPages - 1) / chunkPages
	// Cap the chunk permutation (1M chunks = 2 TB windows); beyond the
	// cap chunks alias, which only affects cold-tail placement.
	permLen := nChunks
	if permLen > 1<<20 {
		permLen = 1 << 20
	}
	chunkPerm := make([]uint32, permLen)
	for i := range chunkPerm {
		chunkPerm[i] = uint32(i)
	}
	rng.Shuffle(len(chunkPerm), func(i, j int) { chunkPerm[i], chunkPerm[j] = chunkPerm[j], chunkPerm[i] })
	innerPerm := make([]uint16, chunkPages)
	for i := range innerPerm {
		innerPerm[i] = uint16(i)
	}
	rng.Shuffle(len(innerPerm), func(i, j int) { innerPerm[i], innerPerm[j] = innerPerm[j], innerPerm[i] })
	return &zipf{w: w, rng: rng, z: z, pages: pages, chunkPerm: chunkPerm, innerPerm: innerPerm}
}

func (z *zipf) NextVA() addr.VA {
	rank := z.z.next()
	// Each reduction is taken only when it can change the result: the
	// chunk index wraps only past the chunk-permutation cap, and the
	// page only in the window's partial last chunk.
	c := rank / chunkPages
	if c >= uint64(len(z.chunkPerm)) {
		c %= uint64(len(z.chunkPerm))
	}
	chunk := uint64(z.chunkPerm[c])
	inner := uint64(z.innerPerm[rank%chunkPages])
	page := chunk*chunkPages + inner
	if page >= z.pages {
		page %= z.pages
	}
	off := page<<addr.Shift4K + uint64(z.rng.Int63n(addr.Bytes4K))
	if off >= z.w.Size {
		off %= z.w.Size
	}
	return z.w.Base + addr.VA(off)
}

type chase struct {
	w     Window
	pages uint64
	mask  uint64 // LCG modulus minus one
	cur   uint64
	a, c  uint64
	rng   *rand.Rand
}

// Chase returns a pointer-chasing stream: a full-cycle walk over the
// window's pages generated by a linear-congruential permutation, so
// successive references depend on each other and revisit a page only
// after touching every other page — the worst case for TLB reuse (mcf's
// cold traversals, GemsFDTD's large-grid sweeps in scrambled order).
func Chase(w Window, seed int64) Stream {
	w.validate()
	rng := rand.New(rand.NewSource(seed))
	pages := w.Pages()
	// LCG over [0, pages) with full period: a ≡ 1 (mod 4), c odd, modulus
	// a power of two ≥ pages (skip values outside the window).
	mod := uint64(1)
	for mod < pages {
		mod <<= 1
	}
	a := (uint64(rng.Int63())/4)*4 + 1
	c := uint64(rng.Int63()) | 1
	return &chase{w: w, pages: pages, mask: mod - 1, cur: uint64(rng.Int63()) % pages, a: a % mod, c: c % mod, rng: rng}
}

func (ch *chase) NextVA() addr.VA {
	for {
		ch.cur = (ch.a*ch.cur + ch.c) & ch.mask
		if ch.cur < ch.pages {
			break
		}
	}
	off := ch.cur<<addr.Shift4K + uint64(ch.rng.Int63n(addr.Bytes4K))
	if off >= ch.w.Size {
		off = ch.cur << addr.Shift4K
	}
	return ch.w.Base + addr.VA(off)
}

// --- Combinators ---

type burst struct {
	inner Stream
	k     int
	left  int
	page  addr.VA
	rng   *rand.Rand
}

// Burst wraps a stream with within-page spatial locality: each page the
// inner stream produces is referenced k times (at varying offsets)
// before the next page is drawn. Real programs touch several words of a
// page in short order; this burstiness is what concentrates TLB hits at
// the MRU stack position and lets way-disabling succeed.
func Burst(inner Stream, k int, seed int64) Stream {
	if k < 1 {
		panic(fmt.Sprintf("trace: burst factor %d < 1", k))
	}
	if k == 1 {
		return inner
	}
	return &burst{inner: inner, k: k, rng: rand.New(rand.NewSource(seed))}
}

func (b *burst) NextVA() addr.VA {
	if b.left == 0 {
		b.page = addr.PageBase(b.inner.NextVA(), addr.Page4K)
		b.left = b.k
	}
	b.left--
	return b.page + addr.VA(b.rng.Int63n(addr.Bytes4K))
}

// Weighted pairs a stream with a selection weight.
type Weighted struct {
	Stream Stream
	Weight float64
}

type mix struct {
	rng     *rand.Rand
	streams []Stream
	cum     []float64
}

// Mix returns a stream that, for each reference, picks one of the
// weighted sub-streams at random — modeling a program touching several
// data structures in an interleaved fashion.
func Mix(seed int64, parts ...Weighted) Stream {
	if len(parts) == 0 {
		panic("trace: empty mix")
	}
	m := &mix{rng: rand.New(rand.NewSource(seed))}
	var total float64
	for _, p := range parts {
		if p.Weight <= 0 {
			panic(fmt.Sprintf("trace: non-positive weight %v", p.Weight))
		}
		total += p.Weight
	}
	var acc float64
	for _, p := range parts {
		acc += p.Weight / total
		m.streams = append(m.streams, p.Stream)
		m.cum = append(m.cum, acc)
	}
	return m
}

func (m *mix) NextVA() addr.VA {
	x := m.rng.Float64()
	for i, c := range m.cum {
		if x < c {
			return m.streams[i].NextVA()
		}
	}
	return m.streams[len(m.streams)-1].NextVA()
}

// Phase is one stage of a phased stream.
type Phase struct {
	Stream Stream
	Refs   uint64 // references before advancing to the next phase
}

type phased struct {
	phases []Phase
	idx    int
	left   uint64
}

// Phased returns a stream that cycles through the given phases,
// switching after each phase's reference budget — the phase changes of
// Figure 4 (astar, GemsFDTD, mcf) that force Lite to adapt.
func Phased(phases ...Phase) Stream {
	if len(phases) == 0 {
		panic("trace: no phases")
	}
	for _, p := range phases {
		if p.Refs == 0 {
			panic("trace: zero-length phase")
		}
	}
	return &phased{phases: phases, left: phases[0].Refs}
}

func (p *phased) NextVA() addr.VA {
	if p.left == 0 {
		p.idx = (p.idx + 1) % len(p.phases)
		p.left = p.phases[p.idx].Refs
	}
	p.left--
	return p.phases[p.idx].Stream.NextVA()
}

// --- Pacing ---

// Generator converts an address stream into a reference stream by
// attaching instruction counts: on average instrPerRef instructions per
// memory reference (fractional rates are accumulated exactly).
type Generator struct {
	stream Stream
	ipr    float64
	acc    float64
}

// NewGenerator paces the stream at instrPerRef instructions per
// reference (must be ≥ 1; typical x86 code issues a memory operation
// every ~2.5–4 instructions).
func NewGenerator(stream Stream, instrPerRef float64) *Generator {
	if instrPerRef < 1 {
		panic(fmt.Sprintf("trace: instrPerRef %v < 1", instrPerRef))
	}
	return &Generator{stream: stream, ipr: instrPerRef}
}

// Next returns the next reference.
func (g *Generator) Next() Ref {
	g.acc += g.ipr
	n := uint64(g.acc)
	g.acc -= float64(n)
	return Ref{VA: g.stream.NextVA(), Instrs: n}
}
