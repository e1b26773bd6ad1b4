package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"testing"

	"xlate/internal/addr"
)

// FuzzReadTrace feeds arbitrary bytes to the trace decoder: it must
// return an error or a valid slice, never panic, and valid traces must
// round-trip. It is also a differential test of the slice codec
// against refReadAll, a stream decoder built on binary.ReadVarint: both
// must accept the same inputs with the same references, a refusal of a
// stream with a good header must wrap ErrBadRecord, and decoding the
// records in chunks of any size must give the same references as one
// call.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	WriteAll(&buf, []Ref{{VA: 0x1000, Instrs: 3}, {VA: 0x7f0000000000, Instrs: 1}})
	f.Add(buf.Bytes())
	f.Add([]byte("XLTRACE1\n"))
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	// Varints of 7 to 10 bytes in both fields, whole and cut short, so
	// both sides of varintAt's eight-byte word path and its byte loop
	// are seeded; then a tenth byte that overflows 64 bits.
	for _, l := range []int{7, 8, 9, 10} {
		big := uint64(1) << min(7*l-1, 63)
		var rec bytes.Buffer
		WriteAll(&rec, []Ref{{VA: 0x1000, Instrs: 1}, {VA: addr.VA(0x1000 + big/2), Instrs: big}, {VA: 7, Instrs: 2}})
		for cut := 0; cut <= 16 && cut < rec.Len()-len(Magic); cut += 5 {
			f.Add(rec.Bytes()[:rec.Len()-cut])
		}
	}
	over := append(bytes.Repeat([]byte{0xff}, 9), 0x02)
	f.Add(append(append([]byte(Magic), over...), 1))
	f.Add(append([]byte(Magic+"\x02"), over...))

	f.Fuzz(func(t *testing.T, data []byte) {
		refs, err := ReadAll(bytes.NewReader(data))
		want, wantErr := refReadAll(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadAll says %v, the binary.ReadVarint reference says %v", err, wantErr)
		}
		if err != nil {
			if bytes.HasPrefix(data, []byte(Magic)) && !errors.Is(err, ErrBadRecord) {
				t.Fatalf("record refusal is not typed: %v", err)
			}
			return
		}
		if !slices.Equal(refs, want) {
			t.Fatalf("ReadAll gave %d refs, the reference %d", len(refs), len(want))
		}
		d := NewDecoder(data[len(Magic):])
		var chunked []Ref
		for step := 1 + len(data)%7; d.Len() > 0; {
			if chunked, err = d.Decode(chunked, step); err != nil {
				t.Fatalf("chunked decode failed where one call succeeded: %v", err)
			}
		}
		if !slices.Equal(chunked, refs) {
			t.Fatalf("chunked decode gave %d refs, one call %d", len(chunked), len(refs))
		}
		// Whatever decoded must re-encode and decode identically.
		var out bytes.Buffer
		if err := WriteAll(&out, refs); err != nil {
			t.Fatal(err)
		}
		again, err := ReadAll(&out)
		if err != nil || len(again) != len(refs) {
			t.Fatalf("round trip failed: %v", err)
		}
		for i := range refs {
			if again[i] != refs[i] {
				t.Fatalf("ref %d changed", i)
			}
		}
	})
}

// refReadAll is the reference XLTRACE1 decoder: a byte-at-a-time
// stream read through bufio with binary.ReadVarint and
// binary.ReadUvarint.
func refReadAll(data []byte) ([]Ref, error) {
	r := bufio.NewReader(bytes.NewReader(data))
	head := make([]byte, len(Magic))
	if _, err := io.ReadFull(r, head); err != nil || string(head) != Magic {
		return nil, errors.New("bad header")
	}
	var refs []Ref
	var prev uint64
	for {
		delta, err := binary.ReadVarint(r)
		if err == io.EOF {
			return refs, nil
		}
		if err != nil {
			return nil, err
		}
		instrs, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		prev += uint64(delta)
		refs = append(refs, Ref{VA: addr.VA(prev), Instrs: instrs})
	}
}
