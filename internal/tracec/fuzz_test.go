package tracec

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"testing"
	"time"

	"xlate/internal/addr"
	"xlate/internal/audit"
	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/physmem"
	"xlate/internal/trace"
	"xlate/internal/vm"
	"xlate/internal/workloads"
)

// FuzzSegmentDecode is the decoder's robustness contract: for arbitrary
// input the full decode pipeline (Stat, NewReplay) never
// panics; every rejection is the typed ErrSegmentCorrupt; and any input
// that passes the Stat gate decodes cleanly, replays, and re-encodes to
// the same reference stream. It is also a differential test of the
// block decoder against refDecodeBlock, a reference built on
// binary.Varint and binary.Uvarint (see checkDecodeBlock). Run
// continuously with `make fuzz`.
func FuzzSegmentDecode(f *testing.F) {
	// Seeds: valid segments of several shapes plus characteristic
	// damage, so the corpus starts on both sides of the gate.
	for _, n := range []int{1, 7, 300} {
		seg, _, err := encodeRefs(synthRefs(n, int64(n)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seg)
		f.Add(seg[:len(seg)-1])
		mut := bytes.Clone(seg)
		mut[len(mut)/2] ^= 0x10
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte("XLSEGv1\n"))
	f.Add([]byte("XLTRACE1\n"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// Varints of 7 to 10 bytes in both fields, framed as segments and
	// as raw payloads, whole and cut short, so both sides of the
	// decoder's eight-byte word path and its byte loop are seeded.
	for _, l := range []int{7, 8, 9, 10} {
		big := uint64(1) << min(7*l-1, 63) // the zigzag of this delta, and this count, take l bytes
		refs := []trace.Ref{{VA: 0x1000, Instrs: 1}, {VA: addr.VA(0x1000 + big/2), Instrs: big}, {VA: 7, Instrs: 2}}
		seg, _, err := encodeRefs(refs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seg)
		payload := rawPayload(refs)
		f.Add(append([]byte{byte(len(refs) - 1)}, payload...))
		// Cut inside the last 16 bytes: the final refs sit where the
		// word path cannot read eight bytes.
		for cut := 1; cut <= 16 && cut < len(payload); cut += 5 {
			f.Add(append([]byte{byte(len(refs) - 1)}, payload[:len(payload)-cut]...))
		}
	}
	// A tenth byte that overflows 64 bits, in each field.
	over := append(bytes.Repeat([]byte{0xff}, 9), 0x02)
	f.Add(append(append([]byte{0}, over...), 1))
	f.Add(append([]byte{0, 2}, over...))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeBlock(t, data)
		info, err := Stat(data)
		if err != nil {
			if !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("Stat rejection is not typed: %v", err)
			}
			// The other entry points must agree that the bytes are bad
			// (and must not panic while concluding so).
			if _, err := decodeAll(data); !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("Stat refused but decodeAll said %v", err)
			}
			if _, err := NewReplay(data); !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("Stat refused but NewReplay said %v", err)
			}
			return
		}
		// Stat accepted: the segment must decode, replay, and survive a
		// round trip through the encoder.
		refs, err := decodeAll(data)
		if err != nil {
			t.Fatalf("Stat accepted but decodeAll failed: %v", err)
		}
		if uint64(len(refs)) != info.Refs {
			t.Fatalf("decoded %d refs, header says %d", len(refs), info.Refs)
		}
		rp, err := NewReplay(data)
		if err != nil {
			t.Fatalf("Stat accepted but NewReplay failed: %v", err)
		}
		for i, want := range refs {
			if got := rp.Next(); got != want {
				t.Fatalf("replay ref %d = %+v, decode says %+v", i, got, want)
			}
		}
		if rp.Next() != refs[0] || rp.Laps != 1 {
			t.Fatal("replay did not wrap cleanly after the last reference")
		}
		reenc, reinfo, err := encodeRefs(refs)
		if err != nil {
			t.Fatalf("re-encoding decoded refs failed: %v", err)
		}
		if reinfo != info {
			t.Fatalf("re-encode info %+v != original %+v", reinfo, info)
		}
		rerefs, err := decodeAll(reenc)
		if err != nil || !reflect.DeepEqual(rerefs, refs) {
			t.Fatalf("re-encode round trip diverged (err=%v)", err)
		}
	})
}

// FuzzSimulateTrace drives arbitrary bytes down both trace paths end to
// end, each into a short demand-paged simulation (exper.RunDemand) with
// every access audited, under a split-L1 config (THP) and a range config
// (RMM): the recorded-trace path xlate.ReplayTrace takes (decode, then
// the trace.CheckReplayable pacing rule) and the ingestion path (Ingest,
// Validate). Every input must end in a clean Result or a typed error —
// a rejected stream, a demand fault the address space cannot back, or an
// address beyond 48 bits — never a panic, an integrity violation, or a
// replay that outlives its deadline. Run continuously with `make fuzz`.
func FuzzSimulateTrace(f *testing.F) {
	f.Add(recordRefs(f, synthRefs(64, 3)))
	seg, _, err := encodeRefs(synthRefs(40, 5))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	// Extreme addresses: the top of the address space and zero.
	edge, _, err := encodeRefs([]trace.Ref{{VA: ^addr.VA(0), Instrs: 1}, {VA: 0, Instrs: 3}, {VA: 1 << 47, Instrs: 1 << 40}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(edge)
	// No instructions at all: a replay of it could never end.
	idle, _, err := encodeRefs([]trace.Ref{{VA: 1 << 30, Instrs: 0}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(idle)
	f.Add(recordRefs(f, []trace.Ref{{VA: 1 << 30, Instrs: 0}, {VA: 1<<30 + 64, Instrs: 0}}))
	f.Add([]byte("XLTRACE1\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if refs, err := trace.ReadAll(bytes.NewReader(data)); err == nil && trace.CheckReplayable(refs) == nil {
			simulateFuzzed(t, "recorded", func() trace.RefSource { return trace.NewReplay(refs) })
		}
		seg, _, err := Ingest(data)
		if err != nil {
			if !errors.Is(err, ErrBadTrace) && !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("Ingest rejection is not typed: %v", err)
			}
			return
		}
		s, err := Validate(seg)
		if err != nil {
			t.Fatalf("Ingest accepted a segment Validate refuses: %v", err)
		}
		simulateFuzzed(t, "ingested", func() trace.RefSource { return s.Replay() })
	})
}

// FuzzIngest is the differential contract of the one-pass XLTRACE1
// transcoder: for every input, Ingest must agree with refIngest, the
// decode-then-encode ingest it replaced, kept here as the reference.
// When both accept, the segment bytes (and so the content key) must be
// identical; when they refuse, both must wrap ErrBadTrace, or
// ErrSegmentCorrupt for XLSEGv1 input. Run continuously with `make
// fuzz`.
func FuzzIngest(f *testing.F) {
	for _, n := range []int{1, 7, 300, blockRefs + 3} {
		f.Add(recordRefs(f, synthRefs(n, int64(n))))
	}
	f.Add(recordRefs(f, []trace.Ref{{VA: 1 << 30, Instrs: 2}, {VA: 1<<30 + 64, Instrs: 0}}))
	// Instruction counts whose sum wraps to zero, and to non-zero.
	f.Add(recordRefs(f, []trace.Ref{{VA: 1 << 30, Instrs: 1 << 63}, {VA: 64, Instrs: 1 << 63}}))
	f.Add(recordRefs(f, []trace.Ref{{VA: 1 << 30, Instrs: 1 << 63}, {VA: 64, Instrs: 1<<63 + 5}}))
	// Zero-padded varints, which a canonical re-encoding shortens.
	f.Add([]byte("XLTRACE1\n\x82\x80\x80\x00\x81\x00\x02\x01"))
	seg, _, err := encodeRefs(synthRefs(40, 5))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-1])
	f.Add([]byte("XLTRACE1\n"))
	f.Add([]byte("XLTRACE1\n\x02"))
	f.Add([]byte("garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, info, err := Ingest(data)
		want, wantErr := refIngest(data)
		if err != nil || wantErr != nil {
			class := ErrBadTrace
			if bytes.HasPrefix(data, []byte(segMagic)) {
				class = ErrSegmentCorrupt
			}
			if !errors.Is(err, class) || !errors.Is(wantErr, class) {
				t.Fatalf("Ingest says %v, the reference says %v; both must wrap %v", err, wantErr, class)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Ingest emitted %d bytes that differ from the reference's %d", len(got), len(want))
		}
		if stat, err := Stat(got); err != nil || stat != info {
			t.Fatalf("Ingest reported %+v; Stat says %+v, %v", info, stat, err)
		}
	})
}

// refIngest is the ingest path the one-pass transcoder replaced: decode
// the whole XLTRACE1 stream into references with binary.ReadVarint,
// check the pacing rule, encode the slice with refEncodeRefs, and run
// the Stat gate that Store.Put applied to the result.
func refIngest(data []byte) ([]byte, error) {
	if bytes.HasPrefix(data, []byte(segMagic)) {
		if _, err := Stat(data); err != nil {
			return nil, err
		}
		return data, nil
	}
	if !bytes.HasPrefix(data, []byte(trace.Magic)) {
		return nil, fmt.Errorf("%w: unrecognized magic", ErrBadTrace)
	}
	r := bytes.NewReader(data[len(trace.Magic):])
	var refs []trace.Ref
	var prev uint64
	for {
		delta, err := binary.ReadVarint(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrBadTrace, len(refs), err)
		}
		instrs, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrBadTrace, len(refs), err)
		}
		prev += uint64(delta)
		refs = append(refs, trace.Ref{VA: addr.VA(prev), Instrs: instrs})
	}
	if err := trace.CheckReplayable(refs); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	seg := refEncodeRefs(refs)
	if _, err := Stat(seg); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	return seg, nil
}

// refEncodeRefs is the reference segment encoder: each block's payload
// built on its own (rawPayload), then framed, then the header put in
// front of the whole body.
func refEncodeRefs(refs []trace.Ref) []byte {
	var body []byte
	var instrs uint64
	blocks := 0
	for start := 0; start < len(refs); start += blockRefs {
		blk := refs[start:min(start+blockRefs, len(refs))]
		payload := rawPayload(blk)
		body = binary.AppendUvarint(body, uint64(len(blk)))
		body = binary.AppendUvarint(body, uint64(len(payload)))
		body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(payload))
		body = append(body, payload...)
		for _, r := range blk {
			instrs += r.Instrs
		}
		blocks++
	}
	out := []byte(segMagic)
	out = binary.AppendUvarint(out, uint64(blocks))
	out = binary.AppendUvarint(out, uint64(len(refs)))
	out = binary.AppendUvarint(out, instrs)
	return append(out, body...)
}

// recordRefs encodes refs in the XLTRACE1 format eeatsim -record writes.
func recordRefs(f *testing.F, refs []trace.Ref) []byte {
	var rec bytes.Buffer
	if err := trace.WriteAll(&rec, refs); err != nil {
		f.Fatal(err)
	}
	return rec.Bytes()
}

// simulateFuzzed runs a fresh stream from src for 20 k instructions on
// 256 MiB of demand-paged memory under THP and RMM, every access audited,
// and fails on anything but a clean Result or a typed error.
func simulateFuzzed(t *testing.T, path string, src func() trace.RefSource) {
	for _, kind := range []core.ConfigKind{core.CfgTHP, core.CfgRMM} {
		p := core.DefaultParams(kind)
		p.Audit = audit.Config{Enabled: true, SampleEvery: 1}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := exper.RunDemand(ctx, exper.Job{
			Spec: workloads.Spec{Name: path}, Params: p,
			Policy: core.PolicyFor(kind, 0.5), Instrs: 20_000, Seed: 1,
		}, src(), 256<<20)
		cancel()
		var v *audit.ViolationError
		switch {
		case err == nil:
		case errors.As(err, &v):
			t.Fatalf("%s %v: integrity violation: %v", path, kind, err)
		case errors.Is(err, context.DeadlineExceeded):
			t.Fatalf("%s %v: replay did not reach its budget: %v", path, kind, err)
		case !errors.Is(err, physmem.ErrOutOfMemory) && !errors.Is(err, vm.ErrBadAddress):
			t.Fatalf("%s %v: simulation error is not typed: %v", path, kind, err)
		}
	}
}

// rawPayload encodes refs as one block payload, as the Encoder does.
func rawPayload(refs []trace.Ref) []byte {
	var out []byte
	prev := uint64(0)
	for _, r := range refs {
		out = binary.AppendVarint(out, int64(uint64(r.VA)-prev))
		out = binary.AppendUvarint(out, r.Instrs)
		prev = uint64(r.VA)
	}
	return out
}

// refDecodeBlock is the reference block decoder: the payload format of
// the package comment, decoded with binary.Varint and binary.Uvarint.
func refDecodeBlock(refCount int, payload []byte) ([]trace.Ref, error) {
	var refs []trace.Ref
	var prev uint64
	off := 0
	for i := 0; i < refCount; i++ {
		delta, n := binary.Varint(payload[off:])
		if n <= 0 {
			return nil, corrupt("bad VA delta in block (ref %d)", i)
		}
		off += n
		instrs, m := binary.Uvarint(payload[off:])
		if m <= 0 {
			return nil, corrupt("bad instr count in block (ref %d)", i)
		}
		off += m
		prev += uint64(delta)
		refs = append(refs, trace.Ref{VA: addr.VA(prev), Instrs: instrs})
	}
	if off != len(payload) {
		return nil, corrupt("%d trailing bytes after block payload", len(payload)-off)
	}
	return refs, nil
}

// checkDecodeBlock runs decodeBlock and refDecodeBlock over the same
// payloads and fails unless both accept with the same refs, or both
// refuse with ErrSegmentCorrupt. The payloads are data itself
// (the first byte picks a ref count of 1 to 64, the rest is the
// payload) and, when data frames as a segment, each framed block.
func checkDecodeBlock(t *testing.T, data []byte) {
	t.Helper()
	same := func(what string, refCount int, payload []byte) {
		got, gotErr := decodeBlock(nil, refCount, payload)
		want, wantErr := refDecodeBlock(refCount, payload)
		switch {
		case gotErr != nil || wantErr != nil:
			if !errors.Is(gotErr, ErrSegmentCorrupt) || !errors.Is(wantErr, ErrSegmentCorrupt) {
				t.Fatalf("%s: decodeBlock says %v, reference says %v", what, gotErr, wantErr)
			}
		case !reflect.DeepEqual(got, want):
			t.Fatalf("%s: decodeBlock gave %d refs, reference %d refs", what, len(got), len(want))
		}
	}
	if len(data) > 0 {
		same("raw payload", int(data[0])%64+1, data[1:])
	}
	_, off, err := header(data)
	for err == nil && off < len(data) {
		var nr int
		var payload []byte
		if nr, payload, off, err = blockAt(data, off); err == nil {
			same("framed block", nr, payload)
		}
	}
}
