package exper

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"xlate/internal/core"
	"xlate/internal/trace"
	"xlate/internal/vm"
	"xlate/internal/workloads"
)

// planRecorder records every cell an experiment requests and answers
// with a result whose ratios stay finite.
type planRecorder struct{ jobs []Job }

func (r *planRecorder) RunCell(j Job) (core.Result, error) {
	r.jobs = append(r.jobs, j)
	share := []float64{0.25, 0.25, 0.5}
	return core.Result{Instructions: 1000, MemRefs: 500, L1Misses: 100, L2Misses: 10, WalkRefs: 40,
		CyclesTLBMiss: 1200, Hits4K: 100, Hits2M: 100, Hits1G: 100, HitsRange: 100,
		LiteLookupShare: [][]float64{share, share, share}}, nil
}

// streamPrefix builds j's workload under j's policy and returns the
// references its generator yields until j.Instrs instructions.
func streamPrefix(t *testing.T, j Job) []trace.Ref {
	t.Helper()
	_, gen, err := j.Spec.Build(workloads.BuildOptions{Policy: j.Policy, Seed: j.Seed, Scale: j.Scale})
	if err != nil {
		t.Fatal(err)
	}
	var refs []trace.Ref
	for instrs := uint64(0); instrs < j.Instrs; {
		r := gen.Next()
		refs = append(refs, r)
		instrs += r.Instrs
	}
	return refs
}

// TestStreamKeyGroupsShareAStream plans every experiment, groups the
// cells by StreamKey, and checks that every member of a group — each
// under its own OS policy — yields the same reference stream: the
// policy-independence that lets a group read one generator.
func TestStreamKeyGroupsShareAStream(t *testing.T) {
	rec := &planRecorder{}
	opt := Options{Instrs: 20_000, Scale: 1, Seed: 42, Runner: rec}
	for _, e := range All() {
		if _, err := e.Run(opt); err != nil {
			t.Fatalf("planning %s: %v", e.ID, err)
		}
	}
	first := map[string][]trace.Ref{} // stream key → its first member's prefix
	built := map[string]bool{}        // stream key and policy already checked
	for _, j := range rec.jobs {
		k := StreamKey(j)
		kp := fmt.Sprintf("%s|%+v", k, j.Policy)
		if built[kp] {
			continue
		}
		built[kp] = true
		refs := streamPrefix(t, j)
		want, ok := first[k]
		if !ok {
			first[k] = refs
			continue
		}
		if !slices.Equal(refs, want) {
			t.Errorf("%s under %+v: stream differs from its group's first member", j.Spec.Name, j.Policy)
		}
	}
	if len(first) != 33 {
		t.Errorf("exper.All() plans %d streams, want 33", len(first))
	}
	if len(built) <= len(first) {
		t.Errorf("%d (stream, policy) pairs over %d streams: no group has two policies", len(built), len(first))
	}
}

// gbSpec has one region of 1.5 GB, which GBPages aligns to 1 GB.
func gbSpec() workloads.Spec {
	return workloads.Spec{
		Name: "gb", Suite: "test", InstrPerRef: 3,
		Regions: []workloads.RegionSpec{{Name: "small", Bytes: 8 << 20}, {Name: "huge", Bytes: 3 << 29}},
		Phases: []workloads.PhaseSpec{{Refs: 1 << 12, Access: []workloads.AccessSpec{
			{Region: 1, Weight: 1, Pattern: workloads.Uni},
		}}},
	}
}

// TestGBPagesMovesTheStream shows why GBPages is in the stream key: it
// moves the base of a region of at least 1 GB, so the generator yields
// other addresses, and the cell gets a stream of its own.
func TestGBPagesMovesTheStream(t *testing.T) {
	base := Job{Spec: gbSpec(), Instrs: 20_000, Scale: 1, Seed: 5}
	thp, gb := base, base
	thp.Policy = vm.Policy{THP: true, THPCoverage: 0.5}
	gb.Policy = vm.Policy{GBPages: true}
	if StreamKey(base) != StreamKey(thp) {
		t.Error("THP changed the stream key")
	}
	if StreamKey(base) == StreamKey(gb) {
		t.Fatal("GBPages did not change the stream key")
	}
	if !slices.Equal(streamPrefix(t, base), streamPrefix(t, thp)) {
		t.Error("THP moved the stream")
	}
	if slices.Equal(streamPrefix(t, base), streamPrefix(t, gb)) {
		t.Error("GBPages left the 1.5 GB region's stream in place")
	}
}

// sharedJobs returns one cell per configuration over one stream that
// runs through the ring several times.
func sharedJobs() []Job {
	spec := workloads.Spec{
		Name: "shared", Suite: "test", InstrPerRef: 4,
		Regions: []workloads.RegionSpec{{Name: "heap", Bytes: 8 << 20}, {Name: "stack", Bytes: 1 << 20}},
		Phases: []workloads.PhaseSpec{{Refs: 1 << 15, Access: []workloads.AccessSpec{
			{Region: 0, Weight: 3, Pattern: workloads.Zpf, ZipfS: 1.2},
			{Region: 1, Weight: 1, Pattern: workloads.Seq, Stride: 64},
		}}, {Refs: 1 << 14, Access: []workloads.AccessSpec{
			{Region: 0, Weight: 1, Pattern: workloads.Chs},
		}}},
	}
	var jobs []Job
	for _, k := range []core.ConfigKind{core.Cfg4KB, core.CfgTHP, core.CfgRMM, core.CfgTLBLite} {
		jobs = append(jobs, Job{Spec: spec, Params: core.DefaultParams(k), Policy: core.PolicyFor(k, 0.5),
			Instrs: 600_000, Scale: 1, Seed: 3})
	}
	return jobs
}

// TestSeatJoinRefusals pins when a cell runs on its own generator: a
// stream key or region windows other than the stream's, or a first
// block that has left the ring. A joiner that finds block 0 still in
// the ring reads the stream from its first reference.
func TestSeatJoinRefusals(t *testing.T) {
	jobs := sharedJobs()
	j := jobs[0]
	key := StreamKey(j)
	_, regions, err := j.Spec.Map(workloads.BuildOptions{Policy: j.Policy, Seed: j.Seed, Scale: j.Scale})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if r := SharedStream(key, 1)[0].join(ctx, j, regions); r == nil {
		t.Error("the only member of a group was refused")
	} else {
		r.leave()
	}
	seats := SharedStream(key, 5)

	other := j
	other.Seed++
	if seats[0].join(ctx, other, regions) != nil {
		t.Error("a cell of another stream joined")
	}
	lead := seats[1].join(ctx, j, regions)
	if lead == nil {
		t.Fatal("the first member could not join")
	}
	moved := slices.Clone(regions)
	moved[0].Base += 1 << 30
	if seats[2].join(ctx, j, moved) != nil {
		t.Error("a cell with other region windows joined")
	}
	seats[4].Release()
	seats[4].Release() // a second release is a no-op

	// Read half the ring; a member joining now still reads from block 0.
	solo := j.Spec.Generator(regions, j.Seed, 0)
	for b := 0; b < streamRingBlocks/2; b++ {
		refs := lead.Peek()
		if len(refs) != streamBlockRefs {
			t.Fatalf("block %d holds %d references", b, len(refs))
		}
		lead.Skip(len(refs))
	}
	late := seats[3].join(ctx, j, regions)
	if late == nil {
		t.Fatal("a member joining with block 0 in the ring was refused")
	}
	for i := 0; i < 3*streamRingBlocks*streamBlockRefs; i++ {
		if got, want := late.Next(), solo.Next(); got != want {
			t.Fatalf("late member's reference %d = %+v, want %+v", i, got, want)
		}
		if i%streamBlockRefs == 0 {
			refs := lead.Peek()
			lead.Skip(len(refs))
		}
	}
	late.leave()
	if _, err := ExecuteJobContext(WithSeat(ctx, seats[3]), j); err != nil {
		t.Fatal(err)
	}
	if r := seats[3].join(ctx, j, regions); r != nil {
		t.Error("a member joined after block 0 left the ring")
	}
	lead.leave()
	if n := len(lead.h.readers); n != 0 {
		t.Errorf("%d readers left on the stream", n)
	}
}

// A member that Job.Check refuses gives its seat up, as one whose
// address space fails to build does, so the stream stops holding its
// first block for it.
func TestRefusedMemberReleasesSeat(t *testing.T) {
	j := sharedJobs()[0]
	seats := SharedStream(StreamKey(j), 2)
	refused := j
	refused.Scale = maxScale + 1
	if _, err := ExecuteJobContext(WithSeat(context.Background(), seats[0]), refused); !errors.Is(err, workloads.ErrInvalidSpec) {
		t.Fatalf("ExecuteJobContext = %v, want workloads.ErrInvalidSpec", err)
	}
	if n := seats[0].h.pending; n != 1 {
		t.Errorf("%d seats pending after the refusal, want 1", n)
	}
	seats[1].Release()
}

// TestSharedStreamReaderCancelledWhileWaiting ends a reader's stream
// when its context ends while it waits a full ring ahead of a member
// that has not joined.
func TestSharedStreamReaderCancelledWhileWaiting(t *testing.T) {
	j := sharedJobs()[0]
	seats := SharedStream(StreamKey(j), 2)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := ExecuteJobContext(WithSeat(ctx, seats[0]), j)
		done <- err
	}()
	// The member reads one ring, then waits for the pending seat.
	h := seats[0].h
	deadline := time.Now().Add(10 * time.Second)
	for {
		h.mu.Lock()
		at := h.slowestReader()
		h.mu.Unlock()
		if at == streamRingBlocks {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the member stopped at block %d, want %d", at, streamRingBlocks)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled member returned %v, want context.Canceled", err)
	}
	seats[1].Release()
	if n := len(seats[0].h.readers); n != 0 {
		t.Errorf("%d readers left on the stream", n)
	}
}
