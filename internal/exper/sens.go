package exper

import (
	"fmt"

	"xlate/internal/cactimodel"
	"xlate/internal/core"
	"xlate/internal/energy"
	"xlate/internal/lite"
	"xlate/internal/stats"
	"xlate/internal/workloads"
)

// sensWorkloads is the subset used for parameter sweeps: the paper's
// phased workloads (where the interval and probability matter most)
// plus one steady one.
func sensWorkloads() []workloads.Spec {
	var out []workloads.Spec
	for _, name := range []string{"astar", "GemsFDTD", "mcf", "zeusmp"} {
		s, ok := workloads.ByName(name)
		if !ok {
			panic("exper: missing sensitivity workload " + name)
		}
		out = append(out, s)
	}
	return out
}

// thpBaselines runs each spec under THP, the baseline every sweep
// reports its savings against.
func thpBaselines(specs []workloads.Spec, opt Options) ([]core.Result, error) {
	thp := make([]core.Result, len(specs))
	for i, s := range specs {
		r, err := runConfig(s, core.CfgTHP, opt)
		if err != nil {
			return nil, err
		}
		thp[i] = r
	}
	return thp, nil
}

// sensInterval reproduces the §6.2 sweep: interval size 1 M–10 M
// instructions × random reactivation probability 1/8–1/128, reporting
// TLB_Lite energy savings vs THP and the miss-cycle cost.
func sensInterval(opt Options) ([]*stats.Table, error) {
	intervals := []uint64{1_000_000, 2_000_000, 5_000_000, 10_000_000}
	probs := []float64{1.0 / 8, 1.0 / 32, 1.0 / 128}
	t := stats.NewTable("§6.2 — Lite interval × reactivation-probability sweep (TLB_Lite, mean over phased workloads)",
		"Interval (instr)", "Prob", "Energy saved vs THP", "Miss cycles vs THP")
	specs := sensWorkloads()
	thp, err := thpBaselines(specs, opt)
	if err != nil {
		return nil, err
	}
	for _, iv := range intervals {
		for _, pr := range probs {
			var sav, cyc []float64
			for i, s := range specs {
				p := core.DefaultParams(core.CfgTLBLite)
				p.Lite.IntervalInstrs = iv
				p.Lite.ReactivateProb = pr
				r, err := runOne(s, p, opt)
				if err != nil {
					return nil, err
				}
				sav = append(sav, 1-r.EnergyPJ()/thp[i].EnergyPJ())
				cyc = append(cyc, float64(r.CyclesTLBMiss)/float64(thp[i].CyclesTLBMiss))
			}
			t.AddRow(fmt.Sprintf("%d", iv), fmt.Sprintf("1/%d", int(1/pr)),
				pct(stats.Mean(sav)), fmt.Sprintf("%.3f", stats.Mean(cyc)))
		}
	}
	return []*stats.Table{t}, nil
}

// sensThreshold implements the threshold study the paper defers to
// future work (§6.2): sweeping ε for both its relative (TLB_Lite) and
// absolute (RMM_Lite) forms.
func sensThreshold(opt Options) ([]*stats.Table, error) {
	specs := sensWorkloads()
	rel := []float64{0.03125, 0.0625, 0.125, 0.25, 0.5}
	abs := []float64{0.025, 0.05, 0.1, 0.2, 0.4}

	tRel := stats.NewTable("ε sweep — TLB_Lite (relative threshold), mean over workloads",
		"ε", "Energy saved vs THP", "L1 MPKI", "Miss cycles vs THP")
	thp, err := thpBaselines(specs, opt)
	if err != nil {
		return nil, err
	}
	for _, e := range rel {
		var sav, mpki, cyc []float64
		for i, s := range specs {
			p := core.DefaultParams(core.CfgTLBLite)
			p.Lite.Epsilon = lite.RelativeThreshold(e)
			r, err := runOne(s, p, opt)
			if err != nil {
				return nil, err
			}
			sav = append(sav, 1-r.EnergyPJ()/thp[i].EnergyPJ())
			mpki = append(mpki, r.L1MPKI())
			cyc = append(cyc, float64(r.CyclesTLBMiss)/float64(thp[i].CyclesTLBMiss))
		}
		tRel.AddRow(pct(e), pct(stats.Mean(sav)),
			fmt.Sprintf("%.2f", stats.Mean(mpki)), fmt.Sprintf("%.3f", stats.Mean(cyc)))
	}

	tAbs := stats.NewTable("ε sweep — RMM_Lite (absolute threshold), mean over workloads",
		"ε (MPKI)", "Energy saved vs THP", "L1 MPKI", "Lookups at 1 way")
	for _, e := range abs {
		var sav, mpki, oneWay []float64
		for i, s := range specs {
			p := core.DefaultParams(core.CfgRMMLite)
			p.Lite.Epsilon = lite.AbsoluteThreshold(e)
			r, err := runOne(s, p, opt)
			if err != nil {
				return nil, err
			}
			sav = append(sav, 1-r.EnergyPJ()/thp[i].EnergyPJ())
			mpki = append(mpki, r.L1MPKI())
			oneWay = append(oneWay, r.LiteLookupShare[0][0])
		}
		tAbs.AddRow(fmt.Sprintf("%.3f", e), pct(stats.Mean(sav)),
			fmt.Sprintf("%.3f", stats.Mean(mpki)), pct(stats.Mean(oneWay)))
	}
	return []*stats.Table{tRel, tAbs}, nil
}

// sensL1Range sweeps the L1-range TLB capacity (the paper fixes 4
// entries for L1 timing; this ablation quantifies what that choice
// costs), synthesizing energies for the non-Table-2 sizes by ratio
// scaling against the 4-entry anchor.
func sensL1Range(opt Options) ([]*stats.Table, error) {
	sizes := []int{2, 4, 8, 16}
	t := stats.NewTable("L1-range TLB size sweep (RMM_Lite, mean over TLB-intensive set)",
		"Entries", "Read energy (pJ)", "Energy saved vs THP", "Range share of L1 hits", "L1 MPKI")
	specs := workloads.TLBIntensive()
	thp, err := thpBaselines(specs, opt)
	if err != nil {
		return nil, err
	}
	anchorGeom := cactimodel.RangeTLBGeometry(4)
	for _, n := range sizes {
		db := energy.Table2()
		cost := db.Cost(energy.L1Range, 0)
		if n != 4 {
			scaled, err := cactimodel.ScaleFrom(cost, anchorGeom, cactimodel.RangeTLBGeometry(n))
			if err != nil {
				return nil, err
			}
			cost = scaled
			db.Register(energy.L1Range, 0, cost)
		}
		var sav, share, mpki []float64
		for i, s := range specs {
			p := core.DefaultParams(core.CfgRMMLite)
			p.L1RangeEntries = n
			p.EnergyDB = db
			r, err := runOne(s, p, opt)
			if err != nil {
				return nil, err
			}
			sav = append(sav, 1-r.EnergyPJ()/thp[i].EnergyPJ())
			share = append(share, float64(r.HitsRange)/float64(r.L1Hits()))
			mpki = append(mpki, r.L1MPKI())
		}
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.3f", cost.ReadPJ),
			pct(stats.Mean(sav)), pct(stats.Mean(share)), fmt.Sprintf("%.3f", stats.Mean(mpki)))
	}
	return []*stats.Table{t}, nil
}

// ablLite ablates the Lite mechanism's components (random reactivation,
// degradation response, downsizing itself) and runs the §4.4
// fully-associative variant, where Lite clusters LRU distances of a
// single fully associative L1 TLB as if there were ways.
func ablLite(opt Options) ([]*stats.Table, error) {
	specs := sensWorkloads()
	thp, err := thpBaselines(specs, opt)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		mod  func(*core.Params)
	}{
		{"Lite (full mechanism)", func(*core.Params) {}},
		{"no random reactivation", func(p *core.Params) { p.Lite.DisableRandomReactivation = true }},
		{"no degradation response", func(p *core.Params) { p.Lite.DisableDegradationReactivation = true }},
		{"no downsizing (=THP)", func(p *core.Params) { p.Lite.DisableDownsizing = true }},
	}
	t := stats.NewTable("Lite component ablation (TLB_Lite, mean over phased workloads)",
		"Variant", "Energy saved vs THP", "L1 MPKI", "Miss cycles vs THP")
	for _, v := range variants {
		var sav, mpki, cyc []float64
		for i, s := range specs {
			p := core.DefaultParams(core.CfgTLBLite)
			v.mod(&p)
			r, err := runOne(s, p, opt)
			if err != nil {
				return nil, err
			}
			sav = append(sav, 1-r.EnergyPJ()/thp[i].EnergyPJ())
			mpki = append(mpki, r.L1MPKI())
			cyc = append(cyc, float64(r.CyclesTLBMiss)/float64(thp[i].CyclesTLBMiss))
		}
		t.AddRow(v.name, pct(stats.Mean(sav)),
			fmt.Sprintf("%.2f", stats.Mean(mpki)), fmt.Sprintf("%.3f", stats.Mean(cyc)))
	}

	// §4.4 fully-associative variant: a single fully associative 64-entry
	// L1 TLB; Lite resizes it in powers of two. Costs for the FA sizes
	// are synthesized from the CAM model anchored at the L1-range TLB.
	fa := stats.NewTable("§4.4 fully-associative L1 variant (4KB pages only; Lite clusters LRU distances)",
		"Workload", "Energy saved vs fixed FA", "Mean active size", "L1 MPKI delta")
	db := energy.Table2()
	anchor := db.Cost(energy.L1Range, 0)
	for w := 1; w <= 64; w *= 2 {
		g := cactimodel.Geometry{Entries: w, CAM: true, TagBits: 36, DataBits: 40}
		cost, err := cactimodel.ScaleFrom(anchor, cactimodel.RangeTLBGeometry(4), g)
		if err != nil {
			return nil, err
		}
		db.Register(energy.L14KB, w, cost)
	}
	for _, s := range specs {
		mk := func(kind core.ConfigKind) (core.Result, error) {
			p := core.DefaultParams(kind)
			p.L14KEntries, p.L14KWays = 64, 64
			p.L12MEntries, p.L12MWays = 32, 4
			p.EnergyDB = db
			// FA Lite on 4KB pages only: TLB_Lite runs over the 4KB
			// configuration's address space (zero THP coverage).
			j := NewJob(s, p, opt)
			j.Policy = core.PolicyFor(core.Cfg4KB, 0)
			return runJob(j, opt)
		}
		fixed, err := mk(core.Cfg4KB)
		if err != nil {
			return nil, err
		}
		adaptive, err := mk(core.CfgTLBLite)
		if err != nil {
			return nil, err
		}
		meanSize := 0.0
		for k, share := range adaptive.LiteLookupShare[0] {
			meanSize += share * float64(int(1)<<k)
		}
		fa.AddRow(s.Name,
			pct(1-adaptive.EnergyPJ()/fixed.EnergyPJ()),
			fmt.Sprintf("%.1f entries", meanSize),
			fmt.Sprintf("%+.2f", adaptive.L1MPKI()-fixed.L1MPKI()))
	}
	return []*stats.Table{t, fa}, nil
}

// static estimates the §6.2 extension: leakage power saved in the
// L1-page TLBs when disabled ways are power-gated (Albonesi [8] with
// gated-Vdd [44]), using Table 2's leakage column weighted by the
// measured active-way occupancy.
func static(opt Options) ([]*stats.Table, error) {
	t := stats.NewTable("Static energy extension — L1 TLB leakage with power-gated disabled ways",
		"Workload", "Config", "Full leakage (mW)", "Gated leakage (mW)", "Saved")
	db := energy.Table2()
	leakAt := func(name string, share []float64) float64 {
		var mw float64
		for k, f := range share {
			mw += f * db.Cost(name, 1<<k).LeakMW
		}
		return mw
	}
	for _, s := range workloads.TLBIntensive() {
		lite, err := runConfig(s, core.CfgTLBLite, opt)
		if err != nil {
			return nil, err
		}
		rl, err := runConfig(s, core.CfgRMMLite, opt)
		if err != nil {
			return nil, err
		}
		full := db.Cost(energy.L14KB, 4).LeakMW + db.Cost(energy.L12MB, 4).LeakMW
		gated := leakAt(energy.L14KB, lite.LiteLookupShare[0]) +
			leakAt(energy.L12MB, lite.LiteLookupShare[1])
		t.AddRow(s.Name, "TLB_Lite",
			fmt.Sprintf("%.4f", full), fmt.Sprintf("%.4f", gated), pct(1-gated/full))

		fullR := db.Cost(energy.L14KB, 4).LeakMW
		gatedR := leakAt(energy.L14KB, rl.LiteLookupShare[0])
		t.AddRow(s.Name, "RMM_Lite",
			fmt.Sprintf("%.4f", fullR), fmt.Sprintf("%.4f", gatedR), pct(1-gatedR/fullR))
	}
	return []*stats.Table{t}, nil
}
