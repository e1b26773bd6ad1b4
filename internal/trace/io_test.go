package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"xlate/internal/addr"
)

func TestTraceRoundTrip(t *testing.T) {
	refs := []Ref{
		{VA: 0x1000, Instrs: 3},
		{VA: 0x1008, Instrs: 2},
		{VA: 0x7fffffff0000, Instrs: 4}, // large forward jump
		{VA: 0x1000, Instrs: 1},         // large backward jump
		{VA: 0, Instrs: 0},
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, refs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(refs) {
		t.Fatalf("decoded %d refs, want %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("ref %d = %+v, want %+v", i, got[i], refs[i])
		}
	}
}

func TestTraceCompactness(t *testing.T) {
	// Page-local references should cost only a few bytes each.
	var refs []Ref
	va := addr.VA(1 << 40)
	for i := 0; i < 1000; i++ {
		va += 64
		refs = append(refs, Ref{VA: va, Instrs: 3})
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, refs); err != nil {
		t.Fatal(err)
	}
	if perRef := buf.Len() / len(refs); perRef > 4 {
		t.Fatalf("local trace costs %d bytes/ref", perRef)
	}
}

func TestTraceBadHeader(t *testing.T) {
	if _, err := ReadAll(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Fatal("bad magic should fail")
	}
	if _, err := ReadAll(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should fail")
	}
}

func TestTraceTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, []Ref{{VA: 0x123456, Instrs: 300}}); err != nil {
		t.Fatal(err)
	}
	// Chop off the final byte: the record's instrs varint is cut.
	b := buf.Bytes()[:buf.Len()-1]
	_, err := ReadAll(bytes.NewReader(b))
	if err == nil || err == io.EOF {
		t.Fatalf("truncated trace should fail hard, got %v", err)
	}
}

func TestReplayLoops(t *testing.T) {
	refs := []Ref{{VA: 1, Instrs: 1}, {VA: 2, Instrs: 1}, {VA: 3, Instrs: 1}}
	rp := NewReplay(refs)
	for lap := 0; lap < 3; lap++ {
		for _, want := range refs {
			if got := rp.Next(); got != want {
				t.Fatalf("lap %d: got %+v want %+v", lap, got, want)
			}
		}
	}
	if rp.Laps != 3 {
		t.Fatalf("Laps = %d", rp.Laps)
	}
}

func TestReplayEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty replay should panic")
		}
	}()
	NewReplay(nil)
}

// Property: any reference sequence round-trips exactly.
func TestQuickTraceRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		refs := make([]Ref, int(n)+1)
		for i := range refs {
			refs[i] = Ref{
				VA:     addr.VA(rng.Uint64() & ((1 << 48) - 1)),
				Instrs: uint64(rng.Intn(1000)),
			}
		}
		var buf bytes.Buffer
		if WriteAll(&buf, refs) != nil {
			return false
		}
		got, err := ReadAll(&buf)
		if err != nil || len(got) != len(refs) {
			return false
		}
		for i := range refs {
			if got[i] != refs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestVarintAtMatchesBinary pins varintAt to binary.Uvarint for every
// encoded length from 1 to 10 bytes, canonical and zero-padded, at
// every distance from the end of the buffer up to 16 bytes, and for
// every truncation of each.
func TestVarintAtMatchesBinary(t *testing.T) {
	var encs [][]byte
	for l := 1; l <= 10; l++ {
		lo := uint64(1) << (7 * (l - 1))
		for _, v := range []uint64{lo, lo | lo>>1 | 1, lo<<7 - 1} {
			if l == 1 {
				v &= 0x7f
			}
			encs = append(encs, binary.AppendUvarint(nil, v))
		}
		// Zero-padded (non-canonical) form of 1: binary.Uvarint accepts it.
		pad := append(bytes.Repeat([]byte{0x80}, l-1), 0)
		pad[0] |= 1
		encs = append(encs, pad)
	}
	encs = append(encs, append(bytes.Repeat([]byte{0xff}, 9), 0x02), bytes.Repeat([]byte{0x80}, 11))
	for _, enc := range encs {
		for tail := 0; tail <= 16; tail++ {
			buf := append(append([]byte{0x55}, enc...), bytes.Repeat([]byte{0x81}, tail)...)
			for end := 1; end <= len(buf); end++ {
				p := buf[:end]
				want, n := binary.Uvarint(p[1:])
				got, next := varintAt(p, 1)
				if n <= 0 {
					if next != -1 {
						t.Fatalf("% x: varintAt accepted (%d, %d), binary.Uvarint refused", p[1:], got, next)
					}
					continue
				}
				if got != want || next != 1+n {
					t.Fatalf("% x: varintAt = (%d, %d), binary.Uvarint = (%d, %d)", p[1:], got, next, want, 1+n)
				}
			}
		}
	}
}
