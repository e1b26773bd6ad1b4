package main

import (
	"context"
	"fmt"
	"sync"

	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/trace"
	"xlate/internal/vm"
	"xlate/internal/workloads"
)

// cellLabel names a cell by workload and configuration.
func cellLabel(j exper.Job) string { return j.Spec.Name + "/" + j.Params.Kind.String() }

// chunkRefs is how many references a traced cell produces before it
// simulates them: a 512 KiB buffer, the size of a segment block, so
// the references are still in cache when the simulator reads them.
const chunkRefs = 1 << 15

// simulateChunked runs one traced cell: NewSimulator, then, chunk by
// chunk, the input layer (src, timed as span input) and the simulator
// over that chunk from memory (core.access), continuing the same run.
// A chunk ends where the instruction budget is met, so the simulator
// consumes exactly the references a single RunContext over the live
// source would; the benchmark checks that the results are identical.
func simulateChunked(ctx context.Context, tr *tracer, parent int, p core.Params, as *vm.AddressSpace, instrs uint64, input string, src trace.RefSource) (core.Result, error) {
	n := tr.start("core.new_sim", parent)
	sim, err := core.NewSimulator(p, as)
	tr.end(n)
	if err != nil {
		return core.Result{}, fmt.Errorf("new simulator: %w", err)
	}
	buf := refBufs.Get().(*[]trace.Ref)
	defer refBufs.Put(buf)
	var res core.Result
	for total := uint64(0); total < instrs; {
		in := tr.start(input, parent)
		n := 0
		for ; n < chunkRefs && total < instrs; n++ {
			(*buf)[n] = src.Next()
			total += (*buf)[n].Instrs
		}
		tr.end(in, "refs", n)
		refs := (*buf)[:n]
		a := tr.start("core.access", parent)
		res, err = sim.RunContext(ctx, trace.NewReplay(refs), total)
		tr.end(a, "refs", len(refs))
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// refBufs recycles the chunk buffers of traced cells, so the timed
// loops do not also time fresh allocation.
var refBufs = sync.Pool{New: func() any {
	buf := make([]trace.Ref, chunkRefs)
	return &buf
}}

// tracedCell runs a live-synthesis cell as exper.ExecuteJobContext
// does — Spec.Build, the generator, NewSimulator, RunContext — with
// the build, the synthesis and the simulator timed apart.
func tracedCell(ctx context.Context, tr *tracer, parent int, j exper.Job) (core.Result, error) {
	c := tr.start("cell", parent)
	defer tr.end(c)
	b := tr.start("workloads.build", c)
	as, gen, err := j.Spec.Build(workloads.BuildOptions{Policy: j.Policy, Seed: j.Seed, Scale: j.Scale})
	tr.end(b)
	if err != nil {
		return core.Result{}, fmt.Errorf("building %s: %w", j.Spec.Name, err)
	}
	return simulateChunked(ctx, tr, c, j.Params, as, j.Instrs, "trace.synth", gen)
}

// planJobs lists the cells an experiment requests, by running it
// against a runner that records each cell and returns an empty result.
func planJobs(e exper.Experiment, opt exper.Options) ([]exper.Job, error) {
	rec := &recorder{}
	opt.Runner = rec
	if _, err := e.Run(opt); err != nil {
		return nil, fmt.Errorf("planning %s: %w", e.ID, err)
	}
	return rec.jobs, nil
}

type recorder struct{ jobs []exper.Job }

func (r *recorder) RunCell(j exper.Job) (core.Result, error) {
	r.jobs = append(r.jobs, j)
	return core.Result{}, nil
}
