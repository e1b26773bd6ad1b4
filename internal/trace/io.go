package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"xlate/internal/addr"
)

// The on-disk trace format replaces the role of Pin traces for users who
// want to drive the simulator with their own memory-reference streams:
//
//	header:  "XLTRACE1\n"
//	records: zigzag-varint(va delta from previous va), uvarint(instrs)
//
// Delta encoding keeps spatially local traces small (a few bytes per
// reference); the format is streaming-friendly in both directions. A
// compiled segment's block payload (internal/tracec) is the same
// record encoding, so AppendRecord and Decoder are the one codec both
// formats use.

// Magic is the header every XLTRACE1 stream starts with.
const Magic = "XLTRACE1\n"

// ErrBadRecord is wrapped by every record decode failure: a varint cut
// short by the end of the input, or one that overflows 64 bits.
var ErrBadRecord = errors.New("malformed trace record")

// AppendRecord appends the record for r to b: the zigzag varint of the
// wrapping delta from prev (the previous reference's VA) to r.VA, then
// the uvarint of r.Instrs.
func AppendRecord(b []byte, prev addr.VA, r Ref) []byte {
	b = binary.AppendVarint(b, int64(r.VA-prev))
	return binary.AppendUvarint(b, r.Instrs)
}

// Decoder decodes a run of records from a byte slice, the first one's
// VA delta taken from zero.
type Decoder struct {
	p    []byte
	off  int
	prev addr.VA
}

// NewDecoder returns a Decoder over the records in p.
func NewDecoder(p []byte) Decoder { return Decoder{p: p} }

// Len returns the number of bytes not yet decoded.
func (d *Decoder) Len() int { return len(d.p) - d.off }

// Decode appends up to n records to dst, fewer when the input ends
// first. A record cut short or carrying an overflowing varint stops it
// with an error wrapping ErrBadRecord; the records before it are
// appended and consumed. The varints decode exactly as binary.Varint
// and binary.Uvarint do (FuzzReadTrace checks this against
// binary.ReadVarint).
func (d *Decoder) Decode(dst []Ref, n int) ([]Ref, error) {
	p, off, prev := d.p, d.off, d.prev
	var err error
	for ; n > 0 && off < len(p); n-- {
		ux, next := varintAt(p, off)
		if next < 0 {
			err = fmt.Errorf("%w: VA delta at offset %d cut short or overflowing", ErrBadRecord, off)
			break
		}
		instrs, end := varintAt(p, next)
		if end < 0 {
			err = fmt.Errorf("%w: instruction count at offset %d cut short or overflowing", ErrBadRecord, next)
			break
		}
		prev += addr.VA(int64(ux>>1) ^ -int64(ux&1)) // zigzag decode
		off = end
		dst = append(dst, Ref{VA: prev, Instrs: instrs})
	}
	d.off, d.prev = off, prev
	return dst, err
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
// Longer varints and the last bytes of the input take the byte loop.
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

// Writer encodes references to an io.Writer.
type Writer struct {
	w    *bufio.Writer
	prev addr.VA
	buf  []byte
}

// NewWriter writes the trace header and returns a Writer. Call Flush
// when done.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw, buf: make([]byte, 0, 2*binary.MaxVarintLen64)}, nil
}

// Write appends one reference.
func (tw *Writer) Write(r Ref) error {
	tw.buf = AppendRecord(tw.buf[:0], tw.prev, r)
	tw.prev = r.VA
	if _, err := tw.w.Write(tw.buf); err != nil {
		return fmt.Errorf("trace: writing record: %w", err)
	}
	return nil
}

// Flush writes any buffered records through to the underlying writer.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// ReadAll decodes an entire trace into memory.
func ReadAll(r io.Reader) ([]Ref, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	body, ok := bytes.CutPrefix(data, []byte(Magic))
	if !ok {
		return nil, fmt.Errorf("trace: bad magic %q", data[:min(len(data), len(Magic))])
	}
	d := NewDecoder(body)
	refs, err := d.Decode(nil, len(body))
	if err != nil {
		return nil, fmt.Errorf("trace: record %d: %w", len(refs), err)
	}
	return refs, nil
}

// WriteAll encodes a complete trace.
func WriteAll(w io.Writer, refs []Ref) error {
	tw, err := NewWriter(w)
	if err != nil {
		return err
	}
	for _, r := range refs {
		if err := tw.Write(r); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// RefSource is anything that yields an infinite reference stream; both
// Generator and Replay implement it, and the simulator consumes it.
type RefSource interface {
	Next() Ref
}

// BlockSource is a RefSource that holds references already materialized
// in memory and hands them out a block at a time, so a consumer can run
// over a slice instead of calling Next per reference. Peek returns the
// buffered references without consuming them; it is never empty while
// the stream lasts, and the slice is valid only until the next call to
// any of the three methods. Skip(n) consumes the first n of them (n at
// most len(Peek())). Next, Peek and Skip all advance the same position.
//
// Only a source with an Err method may end: Peek then returns no
// references and Err says why (a shared stream's reader whose context
// ended, say). Next must not be called on an ended source.
type BlockSource interface {
	RefSource
	Peek() []Ref
	Skip(n int)
}

// Blocks returns src as a BlockSource: src itself when it is one, else
// an adapter that buffers one reference at a time, so a reference that
// is peeked but never skipped stays unconsumed in src's stream.
func Blocks(src RefSource) BlockSource {
	if b, ok := src.(BlockSource); ok {
		return b
	}
	return &oneRef{src: src}
}

// oneRef adapts a plain RefSource to BlockSource one reference at a time.
type oneRef struct {
	src  RefSource
	buf  [1]Ref
	full bool
}

func (o *oneRef) Next() Ref {
	if o.full {
		o.full = false
		return o.buf[0]
	}
	return o.src.Next()
}

func (o *oneRef) Peek() []Ref {
	if !o.full {
		o.buf[0] = o.src.Next()
		o.full = true
	}
	return o.buf[:]
}

func (o *oneRef) Skip(n int) {
	if n > 0 {
		o.full = false
	}
}

// Replay cycles through a recorded reference slice, satisfying
// BlockSource for replayed traces. Looping lets a short recorded trace
// fill any instruction budget, matching how the paper loops simulation
// windows.
type Replay struct {
	refs []Ref
	pos  int
	// Laps counts completed passes over the trace.
	Laps int
}

// CheckReplayable is the pacing rule for recorded and ingested streams:
// a replay loops until the instruction budget is spent, so the stream
// must be non-empty and every reference must carry an instruction.
func CheckReplayable(refs []Ref) error {
	if len(refs) == 0 {
		return errors.New("empty trace")
	}
	for i, r := range refs {
		if r.Instrs == 0 {
			return fmt.Errorf("record %d carries zero instructions (pacing invariant: every reference advances the budget)", i)
		}
	}
	return nil
}

// NewReplay wraps recorded references. The slice must be non-empty and
// is not copied.
func NewReplay(refs []Ref) *Replay {
	if len(refs) == 0 {
		panic("trace: empty replay")
	}
	return &Replay{refs: refs}
}

// Next returns the next recorded reference, wrapping at the end.
func (rp *Replay) Next() Ref {
	r := rp.refs[rp.pos]
	rp.Skip(1)
	return r
}

// Peek returns the references from the current position to the end of
// the recording.
func (rp *Replay) Peek() []Ref { return rp.refs[rp.pos:] }

// Skip consumes n peeked references, wrapping at the end.
func (rp *Replay) Skip(n int) {
	rp.pos += n
	if rp.pos == len(rp.refs) {
		rp.pos = 0
		rp.Laps++
	}
}
