package tracec

import (
	"xlate/internal/trace"
)

// Replay streams a compiled segment into the simulator. It keeps the
// encoded bytes and hands the simulator one decoded block at a time
// from a flat []trace.Ref buffer, so Next is an index increment and
// RunContext (through trace.BlockSource) runs straight over the
// buffer. While one block is consumed, a helper goroutine decodes the
// next into a second buffer, so decode overlaps simulation on another
// core. Only one block is ever decoded ahead, and the working set stays
// two blocks regardless of segment size. Like trace.Replay it wraps at
// the end of the stream, so a short ingested trace fills any
// instruction budget; a segment compiled for a given budget is
// consumed at most once (CompileSpec freezes exactly the refs a live
// run consumes).
type Replay struct {
	data      []byte
	bodyStart int
	buf       []trace.Ref // the block being consumed
	pos       int
	// ahead carries the next block from its decoding goroutine. Its
	// capacity of one lets that goroutine finish and exit even when
	// the replay is abandoned, so no goroutine outlives a replay.
	ahead chan decoded
	info  SegmentInfo

	// Laps counts completed passes over the segment.
	Laps int
}

// decoded is one block handed from its decoding goroutine to the
// replay.
type decoded struct {
	refs    []trace.Ref
	next    int  // offset of the block after it
	wrapped bool // the block starts a new pass over the segment
	err     error
}

// NewReplay validates the segment (the full Stat gate — CRCs, framing,
// totals) and returns a replay positioned at the first reference. The
// byte slice is retained and must not be mutated. Callers replaying
// one segment many times should Validate once and call Segment.Replay
// per run instead — it skips the per-replay revalidation.
func NewReplay(data []byte) (*Replay, error) {
	seg, err := Validate(data)
	if err != nil {
		return nil, err
	}
	return seg.Replay(), nil
}

// Replay returns a new replay of the validated segment, positioned at
// the first reference; decoding of the first block starts at once.
// Replays are independent: each keeps its own decode buffers and
// position, so concurrent cells can replay one Segment simultaneously.
func (s Segment) Replay() *Replay {
	if s.data == nil {
		panic("tracec: Replay on an unvalidated zero Segment")
	}
	_, bodyStart, _ := header(s.data)
	r := &Replay{
		data:      s.data,
		bodyStart: bodyStart,
		ahead:     make(chan decoded, 1),
		info:      s.info,
	}
	go decodeAhead(r.ahead, s.data, bodyStart, bodyStart, make([]trace.Ref, 0, blockRefs))
	return r
}

// Info returns the validated segment summary.
func (r *Replay) Info() SegmentInfo { return r.info }

// Next returns the next reference, wrapping to the start of the segment
// after the last block is drained.
func (r *Replay) Next() trace.Ref {
	if r.pos == len(r.buf) {
		r.refill()
	}
	ref := r.buf[r.pos]
	r.pos++
	return ref
}

// Peek returns the rest of the current block, first taking the next
// decoded block when the current one is drained.
func (r *Replay) Peek() []trace.Ref {
	if r.pos == len(r.buf) {
		r.refill()
	}
	return r.buf[r.pos:]
}

// Skip consumes n peeked references.
func (r *Replay) Skip(n int) { r.pos += n }

// refill takes the block decoded ahead and starts decoding the one
// after it into the drained buffer. Stat already proved every block
// decodes cleanly, so a failure here is impossible short of the caller
// mutating the retained slice — which panics, the same contract
// trace.Replay has for a mutated refs slice.
func (r *Replay) refill() {
	d := <-r.ahead
	if d.err != nil {
		panic("tracec: validated segment no longer decodes: " + d.err.Error())
	}
	spare := r.buf
	if spare == nil {
		spare = make([]trace.Ref, 0, blockRefs)
	}
	go decodeAhead(r.ahead, r.data, r.bodyStart, d.next, spare)
	if d.wrapped {
		r.Laps++
	}
	r.buf, r.pos = d.refs, 0
}

// decodeAhead decodes the block at data[off:] into buf, wrapping to the
// first block at the end of the segment, and sends it on out.
func decodeAhead(out chan<- decoded, data []byte, bodyStart, off int, buf []trace.Ref) {
	d := decoded{}
	if off == len(data) {
		off, d.wrapped = bodyStart, true
	}
	nr, payload, next, err := blockAt(data, off)
	if err == nil {
		buf, err = decodeBlock(buf[:0], nr, payload)
	}
	d.refs, d.next, d.err = buf, next, err
	out <- d
}
