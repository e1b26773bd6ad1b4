package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/harness"
	"xlate/internal/service/cluster"
	"xlate/internal/workloads"
)

// goldenPath is the committed fig2 report, and goldenOpt the options
// it was rendered at.
const goldenPath = "testdata/cluster/fig2.golden"

var goldenOpt = exper.Options{Instrs: 400_000, Scale: 0.1, Seed: 7}

func fig2Experiment() exper.Experiment {
	e, ok := exper.ByID("fig2")
	if !ok {
		panic("no fig2 experiment")
	}
	return e
}

// runFig2 measures the fig2 suite through harness.Suite with live
// synthesis on nproc workers. Set-up builds every address space the
// suite's cells use once, the fixed cost of the input layer.
func runFig2(ctx context.Context, ps phases, budget time.Duration) error {
	opt := exper.Options{Instrs: fig2Instrs, Scale: benchScale, Seed: simSeed(ps[0].seed)}
	e := fig2Experiment()
	jobs, err := planJobs(e, opt)
	if err != nil {
		return err
	}
	err = ps.setups(func(s *session, parent int) error {
		built := make(map[string]bool)
		for _, j := range jobs {
			key := fmt.Sprintf("%s|%+v", j.Spec.Name, j.Policy)
			if built[key] {
				continue
			}
			built[key] = true
			b := s.tr.start("workloads.build", parent)
			_, _, err := j.Spec.Build(workloads.BuildOptions{Policy: j.Policy, Seed: j.Seed, Scale: j.Scale})
			s.tr.end(b)
			if err != nil {
				return fmt.Errorf("fig2 set-up: building %s: %w", j.Spec.Name, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	var first []byte
	err = ps.repeat(budget, func(n int, s *session) error {
		report, err := fig2Suite(ctx, s, e, opt)
		if err != nil {
			return err
		}
		if first == nil {
			first = report
		} else if !bytes.Equal(report, first) {
			s.fail("fig2 report of suite %d differs from the first suite's", n)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if t := ps.traced(); t != nil {
		fig2Layers(t)
	}
	return nil
}

// fig2Suite runs and renders the suite once and returns the report.
func fig2Suite(ctx context.Context, s *session, e exper.Experiment, opt exper.Options) ([]byte, error) {
	workers := runtime.NumCPU()
	root := s.tr.start("fig2.suite", 0)
	var (
		mu         sync.Mutex
		execSum    time.Duration
		firstStart time.Time
		lastEnd    time.Time
		refs       uint64
		cells      int
	)
	exec := func(ctx context.Context, j exper.Job) (core.Result, error) {
		t0 := time.Now()
		var res core.Result
		var err error
		if s.tr == nil {
			res, err = exper.ExecuteJobContext(ctx, j)
		} else {
			res, err = tracedCell(ctx, s.tr, root, j)
		}
		t1 := time.Now()
		mu.Lock()
		if firstStart.IsZero() || t0.Before(firstStart) {
			firstStart = t0
		}
		if t1.After(lastEnd) {
			lastEnd = t1
		}
		execSum += t1.Sub(t0)
		refs += res.MemRefs
		cells++
		mu.Unlock()
		s.sample("cell_ms", ms(t1.Sub(t0)))
		s.cell(cellLabel(j), res, err)
		return res, err
	}

	t0 := time.Now()
	suite := harness.New(harness.Config{Workers: workers, Options: opt, Execute: exec})
	results, err := suite.Run(ctx, []exper.Experiment{e})
	if err != nil {
		return nil, fmt.Errorf("fig2 suite: %w", err)
	}
	var buf bytes.Buffer
	if n := cluster.WriteReport(&buf, results); n != 0 {
		s.fail("fig2 suite: %d experiments failed to render", n)
	}
	t1 := time.Now()

	wall := t1.Sub(t0).Seconds()
	s.sample("wall_s", wall)
	s.sample("cells_per_s", float64(cells)/wall)
	s.sample("mrefs_per_s", float64(refs)/1e6/wall)
	if s.tr != nil && cells > 0 {
		span := lastEnd.Sub(firstStart)
		s.tr.add("harness.plan", root, t0, firstStart)
		s.tr.add("harness.execute", root, firstStart, lastEnd,
			"idle_share", 1-execSum.Seconds()/(float64(workers)*span.Seconds()))
		s.tr.add("harness.render", root, lastEnd, t1)
	}
	s.tr.end(root)
	return buf.Bytes(), nil
}

// fig2Layers derives fig2's per-layer metrics from its traced suites.
func fig2Layers(s *session) {
	tr := s.tr
	s.layer["workloads.build_ms"] = median(tr.durationsMS("workloads.build"))
	synthUS, synthRefs := tr.totalUS("trace.synth", "refs")
	s.layer["trace.synth_ns_per_ref"] = synthUS * 1e3 / synthRefs
	accessUS, accessRefs := tr.totalUS("core.access", "refs")
	s.layer["core.access_ns_per_ref"] = accessUS * 1e3 / accessRefs
	s.layer["core.new_sim_us"] = median(tr.durationsMS("core.new_sim")) * 1e3
	s.layer["harness.plan_ms"] = median(tr.durationsMS("harness.plan"))
	s.layer["harness.render_ms"] = median(tr.durationsMS("harness.render"))
	s.layer["harness.cell_exec_ms_p50"] = median(tr.durationsMS("cell"))
	var idle []float64
	for _, sp := range tr.named("harness.execute") {
		idle = append(idle, sp.Attrs["idle_share"])
	}
	s.layer["harness.idle_share"] = median(idle)

	cellUS, _ := tr.totalUS("cell", "")
	share := synthUS / cellUS
	s.note("live synthesis is %.1f%% of summed cell exec time (want >= 30%%): %s", 100*share, verdict(share >= 0.30))
}

// checkGolden runs fig2 at the golden's options and compares the
// rendered report with the committed golden file.
func checkGolden(ctx context.Context, s *session) error {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("fig2 golden: %w", err)
	}
	exec := func(ctx context.Context, j exper.Job) (core.Result, error) {
		res, err := exper.ExecuteJobContext(ctx, j)
		s.op(err)
		return res, err
	}
	suite := harness.New(harness.Config{Workers: runtime.NumCPU(), Options: goldenOpt, Execute: exec})
	results, err := suite.Run(ctx, []exper.Experiment{fig2Experiment()})
	if err != nil {
		return fmt.Errorf("fig2 golden suite: %w", err)
	}
	var buf bytes.Buffer
	cluster.WriteReport(&buf, results)
	if !bytes.Equal(buf.Bytes(), golden) {
		s.fail("fig2 report at -instrs 400000 -scale 0.1 -seed 7 differs from %s", goldenPath)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "NOT MET"
}
