package main

// The benchmark's workloads and metrics. BENCHMARK.json at the
// repository root carries the same names, units and directions; a test
// keeps the two in step.

// workloadInfo names one workload and why it is in the benchmark.
type workloadInfo struct {
	name string
	why  string
}

var workloadList = []workloadInfo{
	{"fig2", "the fig2 suite users run: 24 cells with live synthesis on nproc harness workers plus rendering; input build and synthesis are about half its host time"},
	{"replay-hit", "compiled mcf/cactusADM segments replayed under TLB_Lite, TLB_PP and RMM_Lite: L1 hit ratio >= 0.96, so L1 probes, Lite and energy charging dominate"},
	{"replay-walk", "the same segments and replay path under 4KB: L1 hit ratio about 0.89 and about 100x the walk refs/ref, so the L2, MMU-cache and walk path does the work"},
	{"serve", "eeatd on loopback, 2 closed-loop clients sharing one queue of model and ingested-trace cells, a quarter repeats: the only path through service, cache, trace store and demand faults"},
}

// metric describes one reported metric. bound is set only for
// end-to-end metrics.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

func (m metric) higherBetter() bool { return m.better == "higher" }

// endToEnd metrics are printed by every untraced run, for every
// workload; README.md says what each means per workload. The time
// bounds are wide because on a shared 2-vCPU VM the host's speed
// drifts through phases of minutes, and run-to-run spreads of 10-25%
// were measured in the noisier phases (README.md, Noise).
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"mrefs_per_s", "Mref/s", "higher", 0.25},
	{"cells_per_s", "1/s", "higher", 0.25},
	{"cell_p50_ms", "ms", "lower", 0.25},
	{"cell_p95_ms", "ms", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.2},
}

// moves names an end-to-end metric on a workload that a per-layer
// metric should move.
type moves struct {
	metric   string
	workload string
}

// layerMetric is a per-layer metric with the end-to-end metrics it
// should move. A layer a workload does not reach reports 0 there.
type layerMetric struct {
	metric
	moves []moves
}

func onReplay(m string) []moves {
	return []moves{{m, "replay-hit"}, {m, "replay-walk"}}
}

var serveLatency = []moves{{"cell_p50_ms", "serve"}, {"cell_p95_ms", "serve"}, {"cells_per_s", "serve"}}

var fig2Wall = []moves{{"wall_s", "fig2"}}

var perLayer = []layerMetric{
	{metric{name: "workloads.build_ms", unit: "ms", better: "lower"},
		append([]moves{{"wall_s", "fig2"}}, onReplay("setup_s")...)},
	{metric{name: "trace.synth_ns_per_ref", unit: "ns", better: "lower"}, fig2Wall},
	{metric{name: "tracec.compile_ms", unit: "ms", better: "lower"}, onReplay("setup_s")},
	{metric{name: "tracec.decode_ns_per_ref", unit: "ns", better: "lower"}, onReplay("mrefs_per_s")},
	{metric{name: "tracec.ingest_ms", unit: "ms", better: "lower"}, []moves{{"setup_s", "serve"}}},
	{metric{name: "core.new_sim_us", unit: "us", better: "lower"}, onReplay("mrefs_per_s")},
	{metric{name: "core.access_ns_per_ref", unit: "ns", better: "lower"},
		append(onReplay("mrefs_per_s"), moves{"wall_s", "fig2"}, moves{"cell_p50_ms", "serve"})},
	// Simulated counts: exact, they explain where access time goes and
	// must not change under a change that only makes the code faster.
	{metric{name: "core.l1_hit_ratio", unit: "ratio", better: "higher"}, onReplay("mrefs_per_s")},
	{metric{name: "core.l1_mpki", unit: "1/kinstr", better: "lower"}, onReplay("mrefs_per_s")},
	{metric{name: "core.l2_mpki", unit: "1/kinstr", better: "lower"}, onReplay("mrefs_per_s")},
	{metric{name: "core.walk_refs_per_ref", unit: "ratio", better: "lower"}, onReplay("mrefs_per_s")},
	{metric{name: "lite.resizes_per_mref", unit: "1/Mref", better: "lower"}, onReplay("mrefs_per_s")},
	{metric{name: "energy.pj_per_ref", unit: "pJ", better: "lower"}, onReplay("mrefs_per_s")},
	{metric{name: "harness.plan_ms", unit: "ms", better: "lower"}, fig2Wall},
	{metric{name: "harness.cell_exec_ms_p50", unit: "ms", better: "lower"}, fig2Wall},
	{metric{name: "harness.idle_share", unit: "ratio", better: "lower"}, fig2Wall},
	{metric{name: "harness.render_ms", unit: "ms", better: "lower"}, fig2Wall},
	{metric{name: "service.queue_ms_p50", unit: "ms", better: "lower"}, serveLatency},
	{metric{name: "service.exec_ms_p50", unit: "ms", better: "lower"}, serveLatency},
	{metric{name: "service.overhead_ms_p50", unit: "ms", better: "lower"}, serveLatency},
	{metric{name: "service.hit_ms_p50", unit: "ms", better: "lower"}, serveLatency},
	{metric{name: "service.cache_hit_ratio", unit: "ratio", better: "higher"}, serveLatency},
	{metric{name: "service.dedup_ratio", unit: "ratio", better: "higher"}, serveLatency},
	{metric{name: "vm.page_faults", unit: "count", better: "lower"}, serveLatency},
}
