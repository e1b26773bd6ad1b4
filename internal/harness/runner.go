package harness

import (
	"context"

	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/stats"
)

// planRecorder is the Runner of the plan pass: it records each distinct
// cell in first-request order, with the index of the experiment being
// planned (exp), and answers with a stub result. The plan pass is
// serial, so no locking.
type planRecorder struct {
	seen map[string]bool
	jobs []plannedJob
	exp  int
}

func (r *planRecorder) RunCell(j exper.Job) (core.Result, error) {
	k := jobKey(j)
	if !r.seen[k] {
		r.seen[k] = true
		r.jobs = append(r.jobs, plannedJob{key: k, job: j, exp: r.exp})
	}
	return stubResult(j), nil
}

// stubResult is what experiments see while being planned. The values
// are never rendered; they only have to survive the arithmetic between
// an experiment's cell requests. Every counter is nonzero (ratios stay
// finite), and the Lite lookup-share slices are populated for three
// TLBs × three way-counts, covering every static index in the
// experiment code.
func stubResult(j exper.Job) core.Result {
	share := func() []float64 { return []float64{0.25, 0.25, 0.5} }
	res := core.Result{
		Config:        j.Params.Kind.String(),
		Instructions:  1000,
		MemRefs:       500,
		L1Misses:      100,
		L2Misses:      10,
		WalkRefs:      40,
		CyclesTLBMiss: 1200,
		Hits4K:        100, Hits2M: 100, Hits1G: 100, HitsRange: 100,
		LiteLookupShare:        [][]float64{share(), share(), share()},
		IntervalL1MPKI:         stats.Series{Name: "plan", Points: []float64{1, 1}},
		IntervalEnergyPerRefPJ: stats.Series{Name: "plan", Points: []float64{1, 1}},
		IntervalLiteWays:       stats.Series{Name: "plan", Points: []float64{1, 1}},
		LiteResizes:            1,
		LiteReactivations:      1,
		MispredictRate:         0.01,
	}
	res.Energy[0] = 1 //eeatlint:allow chargesite synthetic placeholder for the plan pass; no real energy is modeled
	return res
}

// servingRunner is the Runner of the render pass: it answers cells from
// the memoized results. A cell the plan never saw — an experiment whose
// requests depend on simulated values — is executed inline with the
// same recovery and retry policy, so an incomplete plan degrades to
// serial execution, never to wrong output. The render pass is serial;
// the suite lock still guards the maps because the test hook may
// observe them.
type servingRunner struct {
	ctx context.Context
	s   *Suite
}

func (r *servingRunner) RunCell(j exper.Job) (core.Result, error) {
	k := jobKey(j)
	r.s.mu.Lock()
	res, ok := r.s.memo[k]
	ferr, failed := r.s.failed[k]
	r.s.mu.Unlock()
	if ok {
		return res, nil
	}
	if failed {
		return core.Result{}, ferr
	}
	if err := r.ctx.Err(); err != nil {
		return core.Result{}, err
	}
	r.s.cfg.Logf("cell missed by plan, running inline: %s/%s", j.Spec.Name, j.Params.Kind)
	res, rerr := r.s.runCell(r.ctx, plannedJob{key: k, job: j})
	r.s.mu.Lock()
	if rerr != nil {
		r.s.failed[k] = rerr
		r.s.mu.Unlock()
		return core.Result{}, rerr
	}
	r.s.memo[k] = res
	r.s.mu.Unlock()
	r.s.journalCell(k, res) // outside the suite lock, like runAndRecord
	return res, nil
}
