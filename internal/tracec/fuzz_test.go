package tracec

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"xlate/internal/addr"
	"xlate/internal/audit"
	"xlate/internal/core"
	"xlate/internal/physmem"
	"xlate/internal/trace"
	"xlate/internal/vm"
)

// FuzzSegmentDecode is the decoder's robustness contract: for arbitrary
// input the full decode pipeline (Stat, DecodeAll, NewReplay) never
// panics; every rejection is the typed ErrSegmentCorrupt; and any input
// that passes the Stat gate decodes cleanly, replays, and re-encodes to
// the same reference stream. Run continuously with `make fuzz`.
func FuzzSegmentDecode(f *testing.F) {
	// Seeds: valid segments of several shapes plus characteristic
	// damage, so the corpus starts on both sides of the gate.
	for _, n := range []int{1, 7, 300} {
		seg, _, err := EncodeRefs(synthRefs(n, int64(n)))
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

	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := Stat(data)
		if err != nil {
			if !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("Stat rejection is not typed: %v", err)
			}
			// The other entry points must agree that the bytes are bad
			// (and must not panic while concluding so).
			if _, err := DecodeAll(data); !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("Stat refused but DecodeAll said %v", err)
			}
			if _, err := NewReplay(data); !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("Stat refused but NewReplay said %v", err)
			}
			return
		}
		// Stat accepted: the segment must decode, replay, and survive a
		// round trip through the encoder.
		refs, err := DecodeAll(data)
		if err != nil {
			t.Fatalf("Stat accepted but DecodeAll failed: %v", err)
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
		reenc, reinfo, err := EncodeRefs(refs)
		if err != nil {
			t.Fatalf("re-encoding decoded refs failed: %v", err)
		}
		if reinfo != info {
			t.Fatalf("re-encode info %+v != original %+v", reinfo, info)
		}
		rerefs, err := DecodeAll(reenc)
		if err != nil || !reflect.DeepEqual(rerefs, refs) {
			t.Fatalf("re-encode round trip diverged (err=%v)", err)
		}
	})
}

// FuzzSimulateTrace drives arbitrary bytes down the external-trace
// path end to end: Ingest, Validate, then a short demand-paged
// simulation with every access audited, under a split-L1 config (THP)
// and a range config (RMM). Every input must end in a clean Result or
// a typed error — a rejected stream, a demand fault the address space
// cannot back, or an address beyond 48 bits — never a panic or an
// integrity violation. Run
// continuously with `make fuzz`.
func FuzzSimulateTrace(f *testing.F) {
	var rec bytes.Buffer
	w, err := trace.NewWriter(&rec)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range synthRefs(64, 3) {
		if err := w.Write(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Bytes())
	seg, _, err := EncodeRefs(synthRefs(40, 5))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	// Extreme addresses: the top of the address space and zero.
	edge, _, err := EncodeRefs([]trace.Ref{{VA: ^addr.VA(0), Instrs: 1}, {VA: 0, Instrs: 3}, {VA: 1 << 47, Instrs: 1 << 40}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(edge)
	// No instructions at all: a replay of it could never end.
	idle, _, err := EncodeRefs([]trace.Ref{{VA: 1 << 30, Instrs: 0}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(idle)
	f.Add([]byte("XLTRACE1\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
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
		for _, kind := range []core.ConfigKind{core.CfgTHP, core.CfgRMM} {
			p := core.DefaultParams(kind)
			p.DemandPaging = true
			p.Audit = audit.Config{Enabled: true, SampleEvery: 1}
			as := vm.New(vm.Config{Policy: core.PolicyFor(kind, 0.5), Seed: 1, PhysBytes: 256 << 20})
			sim, err := core.NewSimulator(p, as)
			if err != nil {
				t.Fatal(err)
			}
			_, err = sim.RunContext(context.Background(), s.Replay(), 20_000)
			var v *audit.ViolationError
			switch {
			case err == nil:
			case errors.As(err, &v):
				t.Fatalf("%v: integrity violation: %v", kind, err)
			case !errors.Is(err, physmem.ErrOutOfMemory) && !errors.Is(err, vm.ErrBadAddress):
				t.Fatalf("%v: simulation error is not typed: %v", kind, err)
			}
		}
	})
}
