package exper

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"xlate/internal/trace"
	"xlate/internal/vm"
)

// A shared stream lets the cells of one stream group — cells that read
// the same reference stream under different MMU configurations — read
// one generator instead of synthesizing the stream once each. The
// harness forms the groups (StreamKey), hands each member a Seat in the
// context it passes to the executor, and ExecuteJobContext joins the
// seat's stream. Sharing never changes a stream: a cell that cannot
// read the shared stream from its first reference runs on its own
// generator.

// Ring geometry: streamRingBlocks blocks of streamBlockRefs references
// of 16 bytes, a 512 KiB ring per stream group.
const (
	streamBlockRefs  = 2048
	streamRingBlocks = 16
)

// StreamKey identifies the reference stream a cell reads. It holds
// what the generator depends on: the spec, the seed, the scale (which
// sizes the regions) and GBPages, the one policy field that moves a
// region base; the budget is in it so a group's members read equally
// far. Cells with equal keys read identical streams.
func StreamKey(j Job) string {
	return fmt.Sprintf("spec=%+v|seed=%d|scale=%g|instrs=%d|gbpages=%t",
		j.Spec, j.Seed, j.Scale, j.Instrs, j.Policy.GBPages)
}

// Seat is one cell's place on a shared stream. Until its cell joins the
// stream or the seat is released, the stream keeps its first block in
// the ring, so a member that is still building its address space can
// join from the first reference.
type Seat struct {
	h       *hub
	pending bool // neither joined nor released
}

// SharedStream opens one shared stream for n cells with stream key key
// and returns their seats.
func SharedStream(key string, n int) []*Seat {
	h := &hub{key: key, pending: n, moved: make(chan struct{})}
	for i := range h.ring {
		h.ring[i].block = -1
	}
	seats := make([]*Seat, n)
	for i := range seats {
		seats[i] = &Seat{h: h, pending: true}
	}
	return seats
}

type seatKey struct{}

// WithSeat returns ctx carrying seat, which ExecuteJobContext joins.
func WithSeat(ctx context.Context, seat *Seat) context.Context {
	return context.WithValue(ctx, seatKey{}, seat)
}

func seatOf(ctx context.Context) *Seat {
	s, _ := ctx.Value(seatKey{}).(*Seat)
	return s
}

// Release gives the seat up if its cell has not joined the stream, so
// the stream stops holding its first block for it. A nil seat and a
// second Release are no-ops.
func (s *Seat) Release() {
	if s == nil {
		return
	}
	s.h.mu.Lock()
	s.releaseLocked()
	s.h.mu.Unlock()
}

func (s *Seat) releaseLocked() {
	if s.pending {
		s.pending = false
		s.h.pending--
		s.h.advanced()
	}
}

// join returns a reader at the first reference of the seat's stream for
// cell j, whose spec mapped regions, or nil when the cell must run on
// its own generator: its stream key or its regions' windows differ from
// the stream's, the stream failed, or the first block has left the
// ring. The first cell to join supplies the windows and the generator.
// join consumes the seat either way; a nil seat joins nothing.
func (s *Seat) join(ctx context.Context, j Job, regions []vm.Region) *reader {
	if s == nil {
		return nil
	}
	key := StreamKey(j)
	h := s.h
	h.mu.Lock()
	defer h.mu.Unlock()
	s.releaseLocked()
	if key != h.key || h.err != nil || h.ring[0].block >= streamRingBlocks {
		return nil
	}
	if h.newGen == nil {
		h.windows = regions
		h.newGen = func() *trace.Generator { return j.Spec.Generator(regions, j.Seed, 0) }
	} else if !slices.Equal(regions, h.windows) {
		return nil
	}
	r := &reader{h: h, ctx: ctx}
	h.readers = append(h.readers, r)
	return r
}

// hub is one shared stream: a generator and the ring of its most
// recent blocks. Block b lives in ring slot b%streamRingBlocks. The
// reader that first needs a block claims its slot and synthesizes it
// outside the lock; a reader a full ring ahead of the slowest waits for
// it. Blocks are claimed in stream order, and a claim of block b comes
// after block b-1 was filled, so the generator is never used by two
// readers at once.
type hub struct {
	key string

	mu      sync.Mutex
	pending int // seats neither joined nor released; they read from block 0
	readers []*reader
	windows []vm.Region             // regions of the first cell to join
	newGen  func() *trace.Generator // set once, by the first cell to join
	gen     *trace.Generator        // used only by the reader filling a block
	ring    [streamRingBlocks]ringSlot
	moved   chan struct{} // closed and replaced when the slowest reader advances or one leaves
	err     error         // set when the generator panicked
}

// ringSlot holds one block of the stream.
type ringSlot struct {
	block  int         // the block claimed into the slot, -1 for none
	refs   []trace.Ref // its references, once filled
	filled bool
	ready  chan struct{} // closed when the claimed block is filled
}

// slowest is the first block some reader, or a pending seat, still
// needs.
func (h *hub) slowest() int {
	if h.pending > 0 {
		return 0
	}
	return h.slowestReader()
}

// slowestReader is the lowest block a joined reader is at, or -1.
func (h *hub) slowestReader() int {
	min := -1
	for _, r := range h.readers {
		if min < 0 || r.pos < min {
			min = r.pos
		}
	}
	return min
}

// reader is one cell's position in a shared stream: a trace.BlockSource
// that ends when the cell's context ends while it waits for a block.
type reader struct {
	h   *hub
	ctx context.Context
	pos int         // the block being read; earlier blocks are released
	cur []trace.Ref // block pos, once fetched; cur[off:] is unread
	off int
	err error
}

func (r *reader) Next() trace.Ref {
	ref := r.Peek()[0]
	r.off++
	return ref
}

func (r *reader) Peek() []trace.Ref {
	if r.off == len(r.cur) && r.err == nil {
		r.fetch()
	}
	return r.cur[r.off:]
}

func (r *reader) Skip(n int) { r.off += n }

// Err is why the stream ended: the reader's context, or a generator
// panic in another member.
func (r *reader) Err() error { return r.err }

// fetch releases the block just read, if any, and makes the next one
// current, claiming and synthesizing it when no reader has yet. It
// leaves cur nil and sets err when the context ends while it waits.
func (r *reader) fetch() {
	h := r.h
	h.mu.Lock()
	if r.cur != nil {
		was := h.slowest()
		r.pos++
		r.cur, r.off = nil, 0
		if h.slowest() != was {
			h.advanced()
		}
	}
	for {
		if h.err != nil {
			r.err = h.err
			h.mu.Unlock()
			return
		}
		s := &h.ring[r.pos%streamRingBlocks]
		var wait <-chan struct{}
		switch {
		case s.block == r.pos && s.filled:
			r.cur = s.refs
			h.mu.Unlock()
			return
		case s.block == r.pos:
			wait = s.ready // another reader is synthesizing it
		case h.slowest() <= r.pos-streamRingBlocks:
			wait = h.moved // the slot holds a block a slower reader needs
		default:
			s.block, s.filled, s.ready = r.pos, false, make(chan struct{})
			h.mu.Unlock()
			r.fill(s, r.pos)
			return
		}
		h.mu.Unlock()
		select {
		case <-wait:
		case <-r.ctx.Done():
			r.err = r.ctx.Err()
			return
		}
		h.mu.Lock()
	}
}

// fill synthesizes block, claimed into s, outside the lock; the filler
// of block 0 builds the generator first. A generator panic ends the
// stream for every reader and goes on unwinding this reader's cell.
func (r *reader) fill(s *ringSlot, block int) {
	h := r.h
	defer func() {
		if p := recover(); p != nil {
			h.mu.Lock()
			h.err = fmt.Errorf("exper: shared stream generator panicked: %v", p)
			close(s.ready)
			h.advanced()
			h.mu.Unlock()
			panic(p)
		}
	}()
	if block == 0 {
		h.gen = h.newGen()
	}
	if s.refs == nil {
		s.refs = make([]trace.Ref, streamBlockRefs)
	}
	for i := 0; i < len(s.refs); {
		n := copy(s.refs[i:], h.gen.Peek())
		h.gen.Skip(n)
		i += n
	}
	h.mu.Lock()
	s.filled = true
	close(s.ready)
	r.cur = s.refs
	h.mu.Unlock()
}

// leave takes the reader off the stream.
func (r *reader) leave() {
	h := r.h
	h.mu.Lock()
	if i := slices.Index(h.readers, r); i >= 0 {
		h.readers = slices.Delete(h.readers, i, i+1)
		h.advanced()
	}
	h.mu.Unlock()
}

// advanced wakes the readers waiting for a slot to free up: the slowest
// reader moved on, or a reader or seat left.
func (h *hub) advanced() {
	close(h.moved)
	h.moved = make(chan struct{})
}
