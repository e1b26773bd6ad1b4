package tracec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"xlate/internal/workloads"
)

// formatVersion is baked into every content-address key so a future
// segment-format revision can never satisfy a stale key: bumping the
// format recompiles the world instead of replaying misdecoded bytes.
const formatVersion = 1

// Key is the content address of a compiled segment: SHA-256 over the
// format version, the complete spec, and every build input that shapes
// the reference stream — policy, seed, scale, physical-memory override,
// and the instruction budget. It deliberately excludes simulator
// parameters (TLB geometry, energy tables): cells that sweep Params
// under one OS policy share a single compiled trace. The canonical
// %+v encoding mirrors harness.JobKey's discipline.
func Key(spec workloads.Spec, opt workloads.BuildOptions, instrs uint64) string {
	canon := fmt.Sprintf("xlseg|v%d|spec=%+v|policy=%+v|seed=%d|scale=%g|phys=%d|instrs=%d",
		formatVersion, spec, opt.Policy, opt.Seed, opt.Scale, opt.PhysBytes, instrs)
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:])
}

// ContentKey is the content address of an ingested segment: SHA-256 of
// the segment bytes themselves. Ingested streams have no generating
// spec, so the bytes are the identity — which is also what lets a
// worker verify a segment fetched from the coordinator (HTTPFetcher).
func ContentKey(segment []byte) string {
	sum := sha256.Sum256(segment)
	return hex.EncodeToString(sum[:])
}

// CompileSpec lowers a workload model into a segment: it builds the
// spec exactly as a live run would (same policy/seed/scale, and
// therefore the same region windows and generator state) and freezes
// the references the generator yields until the instruction budget is
// met. The simulator consumes a reference while its accumulated
// instructions are below the budget, and every reference carries at
// least one instruction (the generator's pacing invariant), so the
// compiled stream is exactly the prefix a live run consumes — the
// byte-identity guarantee reduces to replaying this prefix through an
// identically built address space.
func CompileSpec(spec workloads.Spec, opt workloads.BuildOptions, instrs uint64) ([]byte, SegmentInfo, error) {
	if instrs == 0 {
		return nil, SegmentInfo{}, fmt.Errorf("tracec: compiling %s: zero instruction budget", spec.Name)
	}
	_, gen, err := spec.Build(opt)
	if err != nil {
		return nil, SegmentInfo{}, fmt.Errorf("tracec: compiling %s: %w", spec.Name, err)
	}
	enc := NewEncoder()
	for total := uint64(0); total < instrs; {
		r := gen.Next()
		total += r.Instrs
		enc.Add(r)
	}
	return enc.Finish()
}
