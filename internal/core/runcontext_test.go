package core

import (
	"reflect"
	"testing"

	"xlate/internal/trace"
	"xlate/internal/vm"
)

// nextOnly hides a source's BlockSource methods, so RunContext falls
// back to its one-reference adapter.
type nextOnly struct{ src trace.RefSource }

func (n nextOnly) Next() trace.Ref { return n.src.Next() }

// TestRunContextBlocksMatchNext pins the block-wise hand-off to the
// reference-at-a-time one: for every configuration, RunContext over a
// BlockSource — a trace.Replay and a live trace.Generator — and over a
// Next-only view of the same stream gives identical Results, whether
// the budget ends in the middle of a block, exactly at the replay's
// end, after several laps, or over two RunContext calls on one source.
// The block source must then resume at the first reference the run
// did not simulate.
func TestRunContextBlocksMatchNext(t *testing.T) {
	for _, kind := range append(AllConfigs(), ExtendedConfigs()...) {
		t.Run(kind.String(), func(t *testing.T) {
			as := vm.New(vm.Config{Policy: PolicyFor(kind, 0.5), Seed: 11})
			reg, err := as.Mmap(48 << 20)
			if err != nil {
				t.Fatal(err)
			}
			generator := func() trace.BlockSource {
				return trace.NewGenerator(trace.Mix(5,
					trace.Weighted{Stream: trace.Zipf(window(reg), 1.6, 6), Weight: 0.8},
					trace.Weighted{Stream: trace.Uniform(window(reg), 7), Weight: 0.2},
				), 3)
			}
			// Longer than one poll window, so the poll cadence also cuts
			// the replay's block.
			refs := make([]trace.Ref, cancelCheckRefs*5/2)
			var lap uint64 // instructions of one pass over refs
			gen := generator()
			for i := range refs {
				refs[i] = gen.Next()
				lap += refs[i].Instrs
			}
			p := DefaultParams(kind)
			p.SeriesIntervalInstrs = 40_000
			run := func(src trace.RefSource, budgets ...uint64) Result {
				sim, err := NewSimulator(p, as)
				if err != nil {
					t.Fatal(err)
				}
				var res Result
				for _, b := range budgets {
					res = mustRun(t, sim, src, b)
				}
				return res
			}
			for _, src := range []struct {
				name   string
				source func() trace.BlockSource
			}{
				{"replay", func() trace.BlockSource { return trace.NewReplay(refs) }},
				{"generator", generator},
			} {
				name, source := src.name, src.source
				for _, tc := range []struct {
					name    string
					budgets []uint64
				}{
					{"mid-block", []uint64{lap / 2}},
					{"block-edge", []uint64{lap}},
					{"laps", []uint64{2*lap + lap/3}},
					{"resumed", []uint64{lap / 3, lap + lap/4}},
				} {
					blocks := source()
					got := run(blocks, tc.budgets...)
					if want := run(nextOnly{source()}, tc.budgets...); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s: block-wise Result %+v\n!= Next-only Result %+v", name, tc.name, got, want)
					}
					ref := source()
					for i := uint64(0); i < got.MemRefs; i++ {
						ref.Next()
					}
					if next, want := blocks.Peek()[0], ref.Next(); next != want {
						t.Fatalf("%s %s: after %d refs the source resumes at %+v, want %+v", name, tc.name, got.MemRefs, next, want)
					}
				}
				// Two calls on one source simulate what one call does.
				if got, want := run(source(), lap/3, lap+lap/4), run(nextOnly{source()}, lap+lap/4); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: resumed Result %+v\n!= single-run Result %+v", name, got, want)
				}
			}
		})
	}
}
