package exper

import (
	"fmt"

	"xlate/internal/core"
	"xlate/internal/stats"
	"xlate/internal/workloads"
)

// TraceExperiment returns a dynamic experiment that characterizes one
// ingested trace segment (internal/tracec) across the paper's headline
// configurations — the fig2 trio plus TLB_Lite — the way every model
// workload is characterized. The cells are ordinary exper.Jobs with a
// trace-backed spec, so they flow through the harness, the audit
// oracle, and cluster dispatch unchanged; executing them requires a
// tracec.Executor holding a segment store (passed as harness
// Config.Execute, or the cluster's Config.Traces).
func TraceExperiment(ref string) Experiment {
	short := ref
	if len(short) > 12 {
		short = short[:12]
	}
	spec := workloads.TraceSpec(ref)
	return Experiment{
		ID:    "trace-" + short,
		Title: "Ingested trace " + short + " — translation energy and TLB behaviour across configurations",
		Run: func(opt Options) ([]*stats.Table, error) {
			kinds := []core.ConfigKind{core.Cfg4KB, core.CfgTHP, core.CfgTLBLite, core.CfgRMM}
			t := stats.NewTable("Ingested trace "+short+" (demand-paged replay)",
				"Config", "L1 MPKI", "L2 MPKI", "Walk refs", "Page faults", "pJ/access", "Energy vs 4KB")
			var base float64
			for _, k := range kinds {
				res, err := runConfig(spec, k, opt)
				if err != nil {
					return nil, fmt.Errorf("trace %s under %v: %w", short, k, err)
				}
				epr := res.EnergyPerRefPJ()
				if k == core.Cfg4KB {
					base = epr
				}
				t.AddRow(k.String(),
					fmt.Sprintf("%.3f", res.L1MPKI()),
					fmt.Sprintf("%.3f", res.L2MPKI()),
					fmt.Sprintf("%d", res.WalkRefs),
					fmt.Sprintf("%d", res.PageFaults),
					fmt.Sprintf("%.1f", epr),
					norm(epr, base))
			}
			return []*stats.Table{t}, nil
		},
	}
}
