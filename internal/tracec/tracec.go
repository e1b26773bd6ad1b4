// Package tracec is the workload compiler: it lowers a workload model
// (workloads.Spec) — or an externally ingested reference stream — into
// compact, replayable trace *segments* and replays them into the
// simulator at memcpy-like speed.
//
// The paper drives its simulator with 50-billion-instruction Pin traces;
// our substitution (internal/trace + internal/workloads) synthesizes
// every reference live on the hot path, paying Zipf/mix RNG work per
// access. tracec removes that cost for every run after the first: a
// compile step consumes the spec's deterministic generator exactly as a
// live run would and freezes the references it produces into a segment,
// which later runs decode block-at-a-time into flat []trace.Ref batches.
// Because the compiled stream is bit-for-bit the stream a live run
// consumes — and the address space is rebuilt under the identical
// policy/seed/scale — a compiled-then-replayed cell renders reports
// byte-identical to live synthesis (proven by TestReplayByteIdentity).
//
// Segments are stored content-addressed (SHA-256; see Key) in an
// on-disk Store with LRU bounds, mirroring the service result-cache
// discipline, and travel between cluster nodes by content hash over
// the /v1/traces HTTP API (see httpapi.go).
//
// # Segment format (version 1)
//
//	header:  "XLSEGv1\n"
//	         uvarint(block count), uvarint(total refs), uvarint(total instrs)
//	block:   uvarint(ref count), uvarint(payload bytes),
//	         uint32le(IEEE CRC of payload), payload
//	payload: per ref: zigzag-varint(VA delta from the previous ref in
//	         the block; the first ref's delta is from 0, i.e. its
//	         absolute VA), uvarint(instrs)
//
// Blocks are self-contained (the VA delta chain restarts at each block)
// so the decoder materializes one block at a time into a reused flat
// buffer. Any damage — bad magic, torn varint, CRC mismatch, count or
// total disagreement — is refused with a typed ErrSegmentCorrupt;
// unlike the coordinator crash journal there is no heal path, because a
// segment is a cache entry addressed by its content: a damaged one is
// simply recompiled or re-fetched.
package tracec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"

	"xlate/internal/addr"
	"xlate/internal/trace"
)

// ErrSegmentCorrupt is wrapped by every decode failure: bad magic,
// truncated header or block, varint overflow, CRC mismatch, or totals
// that disagree with the header. Callers classify with errors.Is and
// refuse the segment — there is no partial-decode path.
var ErrSegmentCorrupt = errors.New("trace segment corrupt")

var segMagic = []byte("XLSEGv1\n")

// blockRefs is the compile-time block granularity: 32 Ki references
// (~100-200 KB encoded) keeps the replay working set L2-resident while
// amortizing per-block framing to well under a bit per reference.
const blockRefs = 1 << 15

// SegmentInfo summarizes a validated segment.
type SegmentInfo struct {
	Blocks int
	Refs   uint64
	Instrs uint64
}

// Encoder builds a segment incrementally. Add references, then Finish.
type Encoder struct {
	body    []byte
	scratch [2 * binary.MaxVarintLen64]byte

	cur       []byte // current block payload
	curRefs   int
	prevVA    uint64
	blocks    int
	refs      uint64
	instrs    uint64
	blockHead [2*binary.MaxVarintLen64 + 4]byte
}

// NewEncoder returns an empty segment encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Add appends one reference.
func (e *Encoder) Add(r trace.Ref) {
	delta := int64(uint64(r.VA) - e.prevVA) // wrapping delta
	n := binary.PutVarint(e.scratch[:], delta)
	n += binary.PutUvarint(e.scratch[n:], r.Instrs)
	e.cur = append(e.cur, e.scratch[:n]...)
	e.prevVA = uint64(r.VA)
	e.curRefs++
	e.refs++
	e.instrs += r.Instrs
	if e.curRefs == blockRefs {
		e.flushBlock()
	}
}

func (e *Encoder) flushBlock() {
	if e.curRefs == 0 {
		return
	}
	n := binary.PutUvarint(e.blockHead[:], uint64(e.curRefs))
	n += binary.PutUvarint(e.blockHead[n:], uint64(len(e.cur)))
	binary.LittleEndian.PutUint32(e.blockHead[n:], crc32.ChecksumIEEE(e.cur))
	e.body = append(e.body, e.blockHead[:n+4]...)
	e.body = append(e.body, e.cur...)
	e.cur = e.cur[:0]
	e.curRefs = 0
	e.prevVA = 0 // the delta chain restarts per block
	e.blocks++
}

// Finish flushes the trailing block and returns the complete segment.
// At least one reference must have been added.
func (e *Encoder) Finish() ([]byte, SegmentInfo, error) {
	e.flushBlock()
	if e.blocks == 0 {
		return nil, SegmentInfo{}, fmt.Errorf("tracec: empty segment")
	}
	var head [3 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(head[:], uint64(e.blocks))
	n += binary.PutUvarint(head[n:], e.refs)
	n += binary.PutUvarint(head[n:], e.instrs)
	out := make([]byte, 0, len(segMagic)+n+len(e.body))
	out = append(out, segMagic...)
	out = append(out, head[:n]...)
	out = append(out, e.body...)
	return out, SegmentInfo{Blocks: e.blocks, Refs: e.refs, Instrs: e.instrs}, nil
}

// EncodeRefs builds a segment from a complete reference slice.
func EncodeRefs(refs []trace.Ref) ([]byte, SegmentInfo, error) {
	e := NewEncoder()
	for _, r := range refs {
		e.Add(r)
	}
	return e.Finish()
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("tracec: %w: %s", ErrSegmentCorrupt, fmt.Sprintf(format, args...))
}

// uvarint decodes from data[off:], refusing truncation and overlong
// encodings with ErrSegmentCorrupt.
func uvarint(data []byte, off int, what string) (uint64, int, error) {
	v, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, 0, corrupt("bad %s varint at offset %d", what, off)
	}
	return v, off + n, nil
}

// header validates the magic and fixed header, returning the info and
// the offset of the first block.
func header(data []byte) (SegmentInfo, int, error) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != string(segMagic) {
		return SegmentInfo{}, 0, corrupt("bad magic")
	}
	off := len(segMagic)
	nb, off, err := uvarint(data, off, "block count")
	if err != nil {
		return SegmentInfo{}, 0, err
	}
	refs, off, err := uvarint(data, off, "ref total")
	if err != nil {
		return SegmentInfo{}, 0, err
	}
	instrs, off, err := uvarint(data, off, "instr total")
	if err != nil {
		return SegmentInfo{}, 0, err
	}
	// A segment with no instructions could never consume a replay's
	// budget: the simulation would spin forever.
	if nb == 0 || refs == 0 || instrs == 0 {
		return SegmentInfo{}, 0, corrupt("empty segment (%d blocks, %d refs, %d instrs)", nb, refs, instrs)
	}
	const maxBlocks = 1 << 32
	if nb > maxBlocks || refs > uint64(nb)*blockRefs {
		return SegmentInfo{}, 0, corrupt("implausible header (%d blocks, %d refs)", nb, refs)
	}
	return SegmentInfo{Blocks: int(nb), Refs: refs, Instrs: instrs}, off, nil
}

// blockAt validates the framing of the block at data[off:] — counts,
// payload bounds, CRC — and returns the ref count, payload, and the
// offset of the next block.
func blockAt(data []byte, off int) (refCount int, payload []byte, next int, err error) {
	nr, off, err := uvarint(data, off, "block ref count")
	if err != nil {
		return 0, nil, 0, err
	}
	plen, off, err := uvarint(data, off, "block payload length")
	if err != nil {
		return 0, nil, 0, err
	}
	if nr == 0 || nr > blockRefs {
		return 0, nil, 0, corrupt("block ref count %d out of range at offset %d", nr, off)
	}
	// Each ref costs at least 2 payload bytes; an inconsistent pair is
	// refused before the bounds check can be fooled.
	if plen > uint64(len(data)) || int(plen) < int(nr) {
		return 0, nil, 0, corrupt("block payload length %d inconsistent with %d refs at offset %d", plen, nr, off)
	}
	if off+4 > len(data) || uint64(off+4)+plen > uint64(len(data)) {
		return 0, nil, 0, corrupt("torn block at offset %d", off)
	}
	want := binary.LittleEndian.Uint32(data[off:])
	payload = data[off+4 : off+4+int(plen)]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return 0, nil, 0, corrupt("block CRC mismatch at offset %d (%08x != %08x)", off, got, want)
	}
	return int(nr), payload, off + 4 + int(plen), nil
}

// decodeBlock appends a validated block's references to dst and
// returns the block's instruction total. The VA delta chain restarts
// at zero. The payload has already passed the CRC, so any leftover or
// missing bytes are encoder-level corruption. This loop is the replay
// hot path, so the varint decode is hand-inlined in varintAt rather
// than calling binary.Uvarint; it accepts and refuses exactly what
// binary.Varint and binary.Uvarint do (the differential fuzz target
// checks this).
func decodeBlock(dst []trace.Ref, refCount int, payload []byte) ([]trace.Ref, uint64, error) {
	var prev, instrTotal uint64
	off := 0
	for i := 0; i < refCount; i++ {
		ux, n := varintAt(payload, off)
		if n < 0 {
			return dst, 0, corrupt("bad VA delta in block (ref %d)", i)
		}
		prev += uint64(int64(ux>>1) ^ -int64(ux&1)) // zigzag decode
		instrs, m := varintAt(payload, n)
		if m < 0 {
			return dst, 0, corrupt("bad instr count in block (ref %d)", i)
		}
		off = m
		instrTotal += instrs
		dst = append(dst, trace.Ref{VA: addr.VA(prev), Instrs: instrs})
	}
	if off != len(payload) {
		return dst, 0, corrupt("%d trailing bytes after block payload", len(payload)-off)
	}
	return dst, instrTotal, nil
}

// varintAt decodes the unsigned varint at p[off:] and returns it with
// the offset just past it, or offset -1 when the encoding is truncated
// or overflows 64 bits (binary.Uvarint's n <= 0).
//
// A one-byte varint returns at once. Otherwise, when eight bytes are
// left, it reads them as one little-endian word: a varint of up to
// eight bytes ends at the word's first byte with the high bit clear,
// and its seven-bit groups are packed together in three mask-and-shift
// steps. Such a varint carries at most 56 bits and cannot overflow.
// Longer varints and the last bytes of a payload take the byte loop.
func varintAt(p []byte, off int) (uint64, int) {
	if off < len(p) && p[off] < 0x80 {
		return uint64(p[off]), off + 1
	}
	if off+8 <= len(p) {
		w := binary.LittleEndian.Uint64(p[off:])
		if stop := ^w & 0x8080808080808080; stop != 0 {
			end := bits.TrailingZeros64(stop) + 1 // bits up to and including the last byte
			w &= (uint64(1)<<end - 1) & 0x7f7f7f7f7f7f7f7f
			w = (w&0x7f007f007f007f00)>>1 | w&0x007f007f007f007f
			w = (w&0x3fff00003fff0000)>>2 | w&0x00003fff00003fff
			w = (w&0x0fffffff00000000)>>4 | w&0x000000000fffffff
			return w, off + end/8
		}
	}
	var x uint64
	for s := uint(0); off < len(p); s += 7 {
		b := p[off]
		off++
		if b < 0x80 {
			if s == 63 && b > 1 {
				return 0, -1
			}
			return x | uint64(b)<<s, off
		}
		if s == 63 {
			return 0, -1
		}
		x |= uint64(b&0x7f) << s
	}
	return 0, -1
}

// Stat fully validates a segment — header, every block's framing and
// CRC, every record's encoding, and the header totals — and returns its
// info. This is the strict gate every segment passes before a Replay or
// the store will touch it; all failures wrap ErrSegmentCorrupt.
func Stat(data []byte) (SegmentInfo, error) {
	info, off, err := header(data)
	if err != nil {
		return SegmentInfo{}, err
	}
	var refs, instrs uint64
	buf := make([]trace.Ref, 0, blockRefs)
	for b := 0; b < info.Blocks; b++ {
		nr, payload, next, err := blockAt(data, off)
		if err != nil {
			return SegmentInfo{}, err
		}
		var blockInstrs uint64
		buf, blockInstrs, err = decodeBlock(buf[:0], nr, payload)
		if err != nil {
			return SegmentInfo{}, err
		}
		instrs += blockInstrs
		refs += uint64(nr)
		off = next
	}
	if off != len(data) {
		return SegmentInfo{}, corrupt("%d trailing bytes after last block", len(data)-off)
	}
	if refs != info.Refs || instrs != info.Instrs {
		return SegmentInfo{}, corrupt("totals disagree with header: %d/%d refs, %d/%d instrs",
			refs, info.Refs, instrs, info.Instrs)
	}
	return info, nil
}

// DecodeAll validates a segment and materializes every reference —
// test and tooling convenience; the simulator path uses Replay instead.
func DecodeAll(data []byte) ([]trace.Ref, error) {
	info, err := Stat(data)
	if err != nil {
		return nil, err
	}
	_, off, _ := header(data)
	out := make([]trace.Ref, 0, info.Refs)
	for b := 0; b < info.Blocks; b++ {
		nr, payload, next, err := blockAt(data, off)
		if err != nil {
			return nil, err
		}
		out, _, err = decodeBlock(out, nr, payload)
		if err != nil {
			return nil, err
		}
		off = next
	}
	return out, nil
}

// Segment is a validated trace segment: the only way to obtain one
// from raw bytes is Validate (the full Stat gate), so holding a
// Segment is proof the bytes decode cleanly. Replays constructed from
// a Segment skip revalidation — the compile-once-replay-many loop pays
// the strict gate once per segment, not once per cell.
type Segment struct {
	data []byte
	info SegmentInfo
}

// Validate runs the full Stat gate over data and wraps it as a
// Segment. The byte slice is retained and must not be mutated.
func Validate(data []byte) (Segment, error) {
	info, err := Stat(data)
	if err != nil {
		return Segment{}, err
	}
	return Segment{data: data, info: info}, nil
}

// Bytes returns the segment's encoded form.
func (s Segment) Bytes() []byte { return s.data }

// Info returns the validated segment summary.
func (s Segment) Info() SegmentInfo { return s.info }
