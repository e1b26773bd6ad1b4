package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"xlate/internal/addr"
)

// The on-disk trace format replaces the role of Pin traces for users who
// want to drive the simulator with their own memory-reference streams:
//
//	header:  "XLTRACE1\n"
//	records: zigzag-varint(va delta from previous va), uvarint(instrs)
//
// Delta encoding keeps spatially local traces small (a few bytes per
// reference); the format is streaming-friendly in both directions.

var traceMagic = []byte("XLTRACE1\n")

// Writer encodes references to an io.Writer.
type Writer struct {
	w    *bufio.Writer
	prev uint64
	buf  [2 * binary.MaxVarintLen64]byte
}

// NewWriter writes the trace header and returns a Writer. Call Flush
// when done.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one reference.
func (tw *Writer) Write(r Ref) error {
	delta := int64(uint64(r.VA) - tw.prev) // wrapping delta
	n := binary.PutVarint(tw.buf[:], delta)
	n += binary.PutUvarint(tw.buf[n:], r.Instrs)
	tw.prev = uint64(r.VA)
	if _, err := tw.w.Write(tw.buf[:n]); err != nil {
		return fmt.Errorf("trace: writing record: %w", err)
	}
	return nil
}

// Flush writes any buffered records through to the underlying writer.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Reader decodes references from an io.Reader.
type Reader struct {
	r    *bufio.Reader
	prev uint64
}

// NewReader validates the trace header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head) != string(traceMagic) {
		return nil, fmt.Errorf("trace: bad magic %q", head)
	}
	return &Reader{r: br}, nil
}

// Next decodes the next reference, returning io.EOF at a clean end of
// trace.
func (tr *Reader) Next() (Ref, error) {
	delta, err := binary.ReadVarint(tr.r)
	if err == io.EOF {
		return Ref{}, io.EOF
	}
	if err != nil {
		return Ref{}, fmt.Errorf("trace: reading va: %w", err)
	}
	instrs, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return Ref{}, fmt.Errorf("trace: truncated record: %w", err)
	}
	tr.prev += uint64(delta)
	return Ref{VA: addr.VA(tr.prev), Instrs: instrs}, nil
}

// ReadAll decodes an entire trace into memory.
func ReadAll(r io.Reader) ([]Ref, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []Ref
	for {
		ref, err := tr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, ref)
	}
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
