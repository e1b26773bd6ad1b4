package xlate_test

import (
	"context"
	"reflect"
	"testing"

	"xlate"
	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/tracec"
	"xlate/internal/workloads"
)

// TestCellShapesAgree pins that every way of running a cell computes the
// same Result. A model cell runs through the zero tracec.Executor,
// exper.ExecuteJobContext and xlate.RunParamsContext; a recorded trace
// runs through xlate.ReplayTrace and through the Executor's replay of the
// same references ingested as a segment. Under every configuration the
// Results must be reflect.DeepEqual, so none of the entry points can
// drift from the others.
func TestCellShapesAgree(t *testing.T) {
	const (
		instrs = 300_000
		scale  = 0.05
		seed   = 42
	)
	w, err := xlate.WorkloadByName("astar")
	if err != nil {
		t.Fatal(err)
	}
	refs, err := xlate.RecordTrace(w, xlate.CfgTHP, 20_000, xlate.RunOptions{Seed: seed, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	enc := tracec.NewEncoder()
	for _, r := range refs {
		enc.Add(r)
	}
	data, _, err := enc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	seg, err := tracec.Validate(data)
	if err != nil {
		t.Fatal(err)
	}
	store, err := tracec.OpenStore(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := tracec.ContentKey(data)
	if err := store.Put(key, seg); err != nil {
		t.Fatal(err)
	}
	ingested := &tracec.Executor{Store: store}
	ctx := context.Background()

	for _, kind := range xlate.AllConfigs() {
		t.Run(kind.String(), func(t *testing.T) {
			p := xlate.DefaultParams(kind)
			job := exper.Job{
				Spec: w, Params: p, Policy: core.PolicyFor(kind, 0.5),
				Instrs: instrs, Scale: scale, Seed: seed,
			}
			viaExecutor, err := (&tracec.Executor{}).ExecuteJob(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			viaExper, err := exper.ExecuteJobContext(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			viaFacade, err := xlate.RunParamsContext(ctx, w, p, instrs, xlate.RunOptions{Seed: seed, Scale: scale})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(viaExecutor, viaExper) {
				t.Errorf("Executor.ExecuteJob != exper.ExecuteJobContext:\n%+v\n%+v", viaExecutor, viaExper)
			}
			if !reflect.DeepEqual(viaExecutor, viaFacade) {
				t.Errorf("Executor.ExecuteJob != xlate.RunParamsContext:\n%+v\n%+v", viaExecutor, viaFacade)
			}

			replayed, err := xlate.ReplayTrace(refs, p, instrs, xlate.RunOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			traceJob := job
			traceJob.Spec = workloads.TraceSpec(key)
			traceJob.Scale = 0
			viaIngest, err := ingested.ExecuteJob(ctx, traceJob)
			if err != nil {
				t.Fatal(err)
			}
			if replayed.MemRefs == 0 || replayed.PageFaults == 0 {
				t.Fatalf("degenerate replay: %+v", replayed)
			}
			if !reflect.DeepEqual(replayed, viaIngest) {
				t.Errorf("xlate.ReplayTrace != Executor ingested replay:\n%+v\n%+v", replayed, viaIngest)
			}
		})
	}
}
