package physmem

import "testing"

// FuzzAllocator drives the buddy allocator and the map-based reference
// (oracle_test.go) with an op stream decoded from fuzz bytes, three
// bytes per op: a selector and a 16-bit argument for oraclePair.step.
// Every returned address, error class and counter must match the
// reference, the structural invariants must hold, and freeing every
// live block must leave nothing allocated.
func FuzzAllocator(f *testing.F) {
	f.Add([]byte{0x01, 0x85, 0x03, 0x80, 0x09})
	f.Add([]byte{0xff, 0x00, 0x10, 0x90})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 768 {
			ops = ops[:768]
		}
		p := newOraclePair(t, 1<<12) // 16 MB of frames
		for i := 0; i+2 < len(ops); i += 3 {
			p.step(uint32(ops[i]), uint32(ops[i+1])|uint32(ops[i+2])<<8)
		}
		if err := p.a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for len(p.live) > 0 {
			if err := p.free(p.live[len(p.live)-1]); err != nil {
				t.Fatal(err)
			}
		}
		if p.a.Allocated() != 0 {
			t.Fatalf("leak: %d frames", p.a.Allocated())
		}
	})
}
