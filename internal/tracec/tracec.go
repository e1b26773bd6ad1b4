// Package tracec holds trace *segments*: compact, replayable reference
// streams, lowered from an externally ingested trace or, with
// CompileSpec, from a workload model (workloads.Spec), and replayed
// into the simulator block-at-a-time.
//
// Ingested segments are what trace-backed cells (trace:<key>
// workloads) read: the Executor replays them under demand paging.
// Model cells always synthesize live. A model compiled with CompileSpec
// freezes exactly the references a live run consumes, so replayed on
// the address space its spec maps it yields the live Result (proven by
// TestCompileSpecReplaysLive); the benchmark's replay workloads use
// that to time the simulator without synthesis.
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
// A payload record is an XLTRACE1 record: both formats are written by
// trace.AppendRecord and read by trace.Decoder.
//
// Blocks are self-contained (the VA delta chain restarts at each block)
// so the decoder materializes one block at a time into a reused flat
// buffer. Any damage — bad magic, torn varint, CRC mismatch, count or
// total disagreement — is refused with a typed ErrSegmentCorrupt;
// unlike the coordinator crash journal there is no heal path, because a
// segment is a cache entry addressed by its content: a damaged one is
// simply re-ingested or re-fetched.
package tracec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"xlate/internal/addr"
	"xlate/internal/trace"
)

// ErrSegmentCorrupt is wrapped by every decode failure: bad magic,
// truncated header or block, varint overflow, CRC mismatch, or totals
// that disagree with the header. Callers classify with errors.Is and
// refuse the segment — there is no partial-decode path.
var ErrSegmentCorrupt = errors.New("trace segment corrupt")

const segMagic = "XLSEGv1\n"

// blockRefs is the compile-time block granularity: 32 Ki references
// (~100-200 KB encoded) keeps the replay working set L2-resident while
// amortizing per-block framing to well under a bit per reference.
const blockRefs = 1 << 15

// blockHeadMax is the framing ahead of a block's payload at its
// largest: a ref count of at most blockRefs and a payload of at most
// blockRefs records of two 10-byte varints each take three uvarint
// bytes apiece, then the 4-byte CRC. A full block's payload is at least
// two bytes per record, so its head takes exactly this much.
const blockHeadMax = 3 + 3 + 4

// segHeadMax is the segment header at its largest: the magic and three
// uvarint totals.
const segHeadMax = len(segMagic) + 3*binary.MaxVarintLen64

// SegmentInfo summarizes a validated segment.
type SegmentInfo struct {
	Blocks int
	Refs   uint64
	Instrs uint64
}

// Encoder builds a segment incrementally in one buffer. Add references,
// then Finish. Room for the segment header and for each block's head
// is reserved ahead of the records and filled in once the counts are
// known, so each record is appended once, straight into place.
type Encoder struct {
	out     []byte // header reserve, finished blocks, current block
	block   int    // offset of the current block's head reserve
	curRefs int
	prevVA  addr.VA
	blocks  int
	refs    uint64
	instrs  uint64
}

// NewEncoder returns an empty segment encoder.
func NewEncoder() *Encoder { return newEncoder(0) }

// newEncoder returns an empty encoder whose buffer holds size bytes
// before it first grows.
func newEncoder(size int) *Encoder {
	e := &Encoder{out: make([]byte, segHeadMax, max(size, segHeadMax+blockHeadMax))}
	e.openBlock()
	return e
}

func (e *Encoder) openBlock() {
	e.block = len(e.out)
	e.out = append(e.out, make([]byte, blockHeadMax)...)
}

// Add appends one reference.
func (e *Encoder) Add(r trace.Ref) {
	e.out = trace.AppendRecord(e.out, e.prevVA, r)
	e.prevVA = r.VA
	e.instrs += r.Instrs
	if e.curRefs++; e.curRefs == blockRefs {
		e.flushBlock()
		e.openBlock()
	}
}

// flushBlock writes the current block's head into its reserve. A head
// shorter than the reserve (only a short final block's can be) slides
// the payload down to meet it.
func (e *Encoder) flushBlock() {
	payload := e.out[e.block+blockHeadMax:]
	var head [blockHeadMax]byte
	h := binary.AppendUvarint(head[:0], uint64(e.curRefs))
	h = binary.AppendUvarint(h, uint64(len(payload)))
	h = binary.LittleEndian.AppendUint32(h, crc32.ChecksumIEEE(payload))
	n := copy(e.out[e.block:], h)
	if n < blockHeadMax {
		e.out = e.out[:e.block+n+copy(e.out[e.block+n:], payload)]
	}
	e.blocks++
	e.refs += uint64(e.curRefs)
	e.curRefs = 0
	e.prevVA = 0 // the delta chain restarts per block
}

// Finish flushes the trailing block and returns the complete segment.
// At least one reference must have been added. The encoder must not be
// used afterwards: the segment shares its buffer.
func (e *Encoder) Finish() ([]byte, SegmentInfo, error) {
	if e.curRefs > 0 {
		e.flushBlock()
	} else {
		e.out = e.out[:e.block] // drop the unused reserve
	}
	if e.blocks == 0 {
		return nil, SegmentInfo{}, fmt.Errorf("tracec: empty segment")
	}
	var head [segHeadMax]byte
	h := append(head[:0], segMagic...)
	h = binary.AppendUvarint(h, uint64(e.blocks))
	h = binary.AppendUvarint(h, e.refs)
	h = binary.AppendUvarint(h, e.instrs)
	start := segHeadMax - len(h)
	copy(e.out[start:], h)
	return e.out[start:], SegmentInfo{Blocks: e.blocks, Refs: e.refs, Instrs: e.instrs}, nil
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
	if !bytes.HasPrefix(data, []byte(segMagic)) {
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

// decodeBlock appends a framed block's references to dst. The VA delta
// chain restarts at zero. The payload has already passed the CRC, so
// any leftover or missing bytes are encoder-level corruption. This is
// the replay hot path: trace.Decoder runs the records, the same codec
// that reads XLTRACE1 streams.
func decodeBlock(dst []trace.Ref, refCount int, payload []byte) ([]trace.Ref, error) {
	d := trace.NewDecoder(payload)
	base := len(dst)
	dst, err := d.Decode(dst, refCount)
	switch {
	case err != nil:
		return dst, corrupt("ref %d of block: %v", len(dst)-base, err)
	case len(dst)-base < refCount:
		return dst, corrupt("block payload ends after %d of %d refs", len(dst)-base, refCount)
	case d.Len() != 0:
		return dst, corrupt("%d trailing bytes after block payload", d.Len())
	}
	return dst, nil
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
		if buf, err = decodeBlock(buf[:0], nr, payload); err != nil {
			return SegmentInfo{}, err
		}
		for _, r := range buf {
			instrs += r.Instrs
		}
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

// Segment is a validated trace segment: the only way to obtain one
// from raw bytes is Validate (the full Stat gate), so holding a
// Segment is proof the bytes decode cleanly. Replays constructed from
// a Segment skip revalidation — the Executor's memo pays the strict
// gate once per segment, not once per cell.
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
