package main

import (
	"context"
	"fmt"
	"time"

	"xlate/internal/core"
	"xlate/internal/tracec"
	"xlate/internal/vm"
	"xlate/internal/workloads"
)

// replayCell is one prepared replay cell: a validated compiled segment
// and the address space the live run would have built.
type replayCell struct {
	label string
	p     core.Params
	as    *vm.AddressSpace
	seg   tracec.Segment
}

// setupReplay compiles every (model, OS policy) stream once and builds
// one address space per cell, as tracec's executor does for a
// compiled model cell.
func setupReplay(s *session, parent int, kinds []core.ConfigKind) ([]replayCell, error) {
	segs := make(map[string]tracec.Segment)
	var cells []replayCell
	for _, name := range replayModels {
		spec, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("no workload %q", name)
		}
		for _, k := range kinds {
			bopt := workloads.BuildOptions{Policy: core.PolicyFor(k, 0.5), Seed: simSeed(s.seed), Scale: benchScale}
			key := tracec.Key(spec, bopt, replayInstrs)
			seg, ok := segs[key]
			if !ok {
				c := s.tr.start("tracec.compile", parent)
				data, _, err := tracec.CompileSpec(spec, bopt, replayInstrs)
				s.tr.end(c)
				if err != nil {
					return nil, err
				}
				v := s.tr.start("tracec.validate", parent)
				seg, err = tracec.Validate(data)
				s.tr.end(v)
				if err != nil {
					return nil, err
				}
				segs[key] = seg
			}
			b := s.tr.start("workloads.build", parent)
			as, _, err := spec.Build(bopt)
			s.tr.end(b)
			if err != nil {
				return nil, fmt.Errorf("building %s: %w", name, err)
			}
			cells = append(cells, replayCell{label: name + "/" + k.String(), p: core.DefaultParams(k), as: as, seg: seg})
		}
	}
	return cells, nil
}

// runReplay measures compiled-segment replay through the simulator on
// one goroutine: each pass runs every cell once, NewSimulator then
// RunContext over Segment.Replay. Set-up compiles, validates and
// builds everything anew each time.
func runReplay(kinds []core.ConfigKind) runFunc {
	return func(ctx context.Context, ps phases, budget time.Duration) error {
		var cells []replayCell
		err := ps.setups(func(s *session, parent int) error {
			cells = nil // the previous repetition's cells are garbage now
			var err error
			if cells, err = setupReplay(s, parent, kinds); err != nil {
				return fmt.Errorf("replay set-up: %w", err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if err := ps.repeat(budget, func(_ int, s *session) error {
			replayPass(ctx, s, cells)
			return nil
		}); err != nil {
			return err
		}
		if t := ps.traced(); t != nil {
			return replayLayers(ctx, t, kinds)
		}
		return nil
	}
}

func replayPass(ctx context.Context, s *session, cells []replayCell) {
	pass := s.tr.start("replay.pass", 0)
	var refs uint64
	t0 := time.Now()
	for _, c := range cells {
		c0 := time.Now()
		var res core.Result
		var err error
		if s.tr == nil {
			var sim *core.Simulator
			if sim, err = core.NewSimulator(c.p, c.as); err == nil {
				res, err = sim.RunContext(ctx, c.seg.Replay(), replayInstrs)
			}
		} else {
			res, err = tracedReplayCell(ctx, s.tr, pass, c)
		}
		s.typedCell(c.label, ms(time.Since(c0)))
		s.cell(c.label, res, err)
		refs += res.MemRefs
	}
	wall := time.Since(t0).Seconds()
	s.tr.end(pass)
	s.sample("wall_s", wall)
	s.sample("cells_per_s", float64(len(cells))/wall)
	s.sample("mrefs_per_s", float64(refs)/1e6/wall)
}

// tracedReplayCell splits a replay cell into segment decode and the
// simulator layer.
func tracedReplayCell(ctx context.Context, tr *tracer, parent int, c replayCell) (core.Result, error) {
	id := tr.start("cell", parent)
	defer tr.end(id)
	return simulateChunked(ctx, tr, id, c.p, c.as, replayInstrs, "tracec.decode", c.seg.Replay())
}

// replayLayers derives the replay workloads' per-layer metrics and
// checks that they separate the L1 path from the walk path.
func replayLayers(ctx context.Context, s *session, kinds []core.ConfigKind) error {
	tr := s.tr
	s.layer["workloads.build_ms"] = median(tr.durationsMS("workloads.build"))
	s.layer["tracec.compile_ms"] = median(tr.durationsMS("tracec.compile"))
	decUS, decRefs := tr.totalUS("tracec.decode", "refs")
	s.layer["tracec.decode_ns_per_ref"] = decUS * 1e3 / decRefs
	accUS, accRefs := tr.totalUS("core.access", "refs")
	s.layer["core.access_ns_per_ref"] = accUS * 1e3 / accRefs
	s.layer["core.new_sim_us"] = median(tr.durationsMS("core.new_sim")) * 1e3

	cellUS, _ := tr.totalUS("cell", "")
	share := decUS / cellUS
	s.note("segment decode is %.1f%% of replay cell time (want <= 15%%): %s", 100*share, verdict(share <= 0.15))
	agg := s.aggregate()
	if kinds[0] != core.Cfg4KB {
		hit := agg["core.l1_hit_ratio"]
		s.note("L1 hit ratio %.4f (want >= 0.96): %s", hit, verdict(hit >= 0.96))
		return nil
	}
	// The walk ratio compares against replay-hit's cells at this seed,
	// simulated once here without timing.
	hs := newSession(s.seed, nil, make(map[string]counters))
	cells, err := setupReplay(hs, 0, hitConfigs)
	if err != nil {
		return fmt.Errorf("replay-hit cells for the walk ratio: %w", err)
	}
	replayPass(ctx, hs, cells)
	walk, hitWalk := agg["core.walk_refs_per_ref"], hs.aggregate()["core.walk_refs_per_ref"]
	s.note("walk refs/ref %.5f vs replay-hit %.5f = %.1fx (want >= 10x): %s", walk, hitWalk, walk/hitWalk, verdict(walk >= 10*hitWalk))
	return nil
}
