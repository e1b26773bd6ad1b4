// Command eeatsim runs one workload under one TLB configuration and
// prints the performance counters and the dynamic-energy breakdown.
//
// Usage:
//
//	eeatsim [-workload mcf] [-config RMM_Lite] [-instrs 20000000]
//	        [-seed 42] [-scale 1.0] [-interval 0] [-list]
//	eeatsim -audit -audit-sample 1          # cross-check every access
//	eeatsim -audit -inject flip-pfn@1000    # prove the fault is caught
//	eeatsim -trace-out run.trace            # Chrome-loadable event trace
//	eeatsim -status-addr localhost:9090     # live /metrics + /status
//	eeatsim -cpuprofile cpu.out -memprofile mem.out
//	eeatsim -remote http://localhost:8080   # offload to an eeatd daemon
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"xlate"
	"xlate/internal/core"
	"xlate/internal/energy"
	"xlate/internal/exper"
	"xlate/internal/obsflags"
	"xlate/internal/service"
	"xlate/internal/service/client"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Stdout)
	stop()
	code := 0
	if err != nil {
		fmt.Fprintln(os.Stderr, "eeatsim:", err)
		code = 1
		if errors.Is(err, obsflags.ErrUsage) {
			code = 2
		}
	}
	os.Exit(code)
}

func run(ctx context.Context, out *os.File) error {
	kinds := append(xlate.AllConfigs(), xlate.ExtendedConfigs()...)
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	var (
		workload = flag.String("workload", "mcf", "workload model name (see -list)")
		config   = flag.String("config", "RMM_Lite", "configuration: "+strings.Join(names, ", "))
		instrs   = flag.Uint64("instrs", 20_000_000, "instruction budget")
		seed     = flag.Int64("seed", 42, "random seed")
		scale    = flag.Float64("scale", 1.0, "workload footprint scale")
		interval = flag.Uint64("interval", 0, "collect an L1-MPKI series with this interval (instructions); 0 disables")
		list     = flag.Bool("list", false, "list workloads and configurations, then exit")
		record   = flag.String("record", "", "record the workload's reference trace to this file and exit")
		replay   = flag.String("replay", "", "replay a recorded trace file instead of the workload generator")
		nrecord  = flag.Int("record-refs", 1_000_000, "references to record with -record")
		remote   = flag.String("remote", "", "offload the simulation to an eeatd daemon at this base URL (e.g. http://localhost:8080)")
	)
	sim := obsflags.RegisterSim()
	obs := obsflags.Register()
	flag.Parse()

	aud, fault, err := sim.Integrity()
	if err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(out, "Configurations:")
		for _, name := range names {
			fmt.Fprintf(out, "  %s\n", name)
		}
		fmt.Fprintln(out, "Workloads:")
		for _, w := range xlate.AllWorkloads() {
			tag := ""
			if w.TLBIntensive {
				tag = "  (TLB intensive)"
			}
			fmt.Fprintf(out, "  %-14s %-10s %5d MB%s\n", w.Name, w.Suite, w.FootprintBytes()>>20, tag)
		}
		return nil
	}

	kind, ok := core.ParseConfig(*config)
	if !ok {
		return fmt.Errorf("unknown config %q: %w", *config, obsflags.ErrUsage)
	}
	w, err := xlate.WorkloadByName(*workload)
	if err != nil {
		return fmt.Errorf("%v: %w", err, obsflags.ErrUsage)
	}

	// -remote offloads the cell to an eeatd daemon: same workload,
	// config, and options resolve to the same canonical cell key
	// server-side, so repeated invocations hit the daemon's
	// content-addressed cache instead of re-simulating.
	if *remote != "" {
		if *record != "" || *replay != "" || sim.Audit || sim.Inject != "" {
			return fmt.Errorf("-remote cannot be combined with -record/-replay/-audit/-inject: %w", obsflags.ErrUsage)
		}
		c := client.New(*remote)
		cr, _, err := c.RunCell(ctx, service.SubmitRequest{
			Workload: w.Name,
			Config:   kind.String(),
			Interval: *interval,
			Instrs:   *instrs,
			Scale:    *scale,
			Seed:     *seed,
		})
		if err != nil {
			return err
		}
		source := fmt.Sprintf("%s via %s (cell %.12s…)", w.Name, *remote, cr.Key)
		printResult(out, cr.Result, source, false)
		return nil
	}

	if *record != "" {
		refs, err := xlate.RecordTrace(w, kind, *nrecord, xlate.RunOptions{Seed: *seed, Scale: *scale})
		if err != nil {
			return err
		}
		f, err := os.Create(*record)
		if err != nil {
			return err
		}
		if err := xlate.WriteTrace(f, refs); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "recorded %d references of %s to %s\n", len(refs), w.Name, *record)
		return nil
	}

	logf := func(f string, args ...any) { fmt.Fprintf(os.Stderr, "eeatsim: "+f+"\n", args...) }
	sess, err := obs.Start(nil, logf)
	if err != nil {
		return fmt.Errorf("%v: %w", err, obsflags.ErrUsage)
	}
	defer func() {
		if cerr := sess.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "eeatsim:", cerr)
		}
	}()

	p := xlate.DefaultParams(kind)
	p.SeriesIntervalInstrs = *interval
	p.Audit = aud
	p.Fault = fault
	p.Metrics = core.NewMetrics(sess.Registry)
	p.Trace = sess.Tracer
	var res xlate.Result
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			return err
		}
		refs, err := xlate.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		if res, err = xlate.ReplayTrace(refs, p, *instrs, xlate.RunOptions{Seed: *seed}); err != nil {
			if errors.Is(err, xlate.ErrInvalidParams) {
				err = fmt.Errorf("%w: %w", err, obsflags.ErrUsage)
			}
			return err
		}
		fmt.Fprintf(out, "replayed %d-reference trace (%d demand faults)\n", len(refs), res.PageFaults)
	} else {
		if *seed == 0 {
			*seed = 42 // the library's default seed
		}
		res, err = exper.ExecuteJobContext(ctx, exper.Job{
			Spec: w, Params: p, Policy: core.PolicyFor(kind, 0.5),
			Instrs: *instrs, Scale: *scale, Seed: *seed,
		})
		if err != nil {
			return err
		}
	}

	footprint := w.FootprintBytes()
	if *scale > 0 {
		footprint = uint64(float64(footprint) * *scale)
	}
	source := fmt.Sprintf("%s (%d MB footprint)", w.Name, footprint>>20)
	if *replay != "" {
		source = "trace " + *replay
	}
	printResult(out, res, source, sim.Audit)
	return nil
}

// printResult renders the counter and energy report for one simulation
// result, local or fetched from a daemon.
func printResult(out io.Writer, res xlate.Result, source string, auditOn bool) {
	fmt.Fprintf(out, "%s on %s, %d instructions\n", res.Config, source, res.Instructions)
	fmt.Fprintf(out, "  memory references    %12d\n", res.MemRefs)
	fmt.Fprintf(out, "  L1 TLB misses        %12d  (%.3f MPKI)\n", res.L1Misses, res.L1MPKI())
	fmt.Fprintf(out, "  L2 TLB misses        %12d  (%.3f MPKI)\n", res.L2Misses, res.L2MPKI())
	fmt.Fprintf(out, "  page-walk mem refs   %12d\n", res.WalkRefs)
	fmt.Fprintf(out, "  TLB-miss cycles      %12d  (%.2f%% of total)\n",
		res.CyclesTLBMiss, 100*res.MissCycleFraction())
	if hits := float64(res.L1Hits()); hits > 0 {
		fmt.Fprintf(out, "  L1 hit attribution   4KB %.1f%%  2MB %.1f%%  1GB %.1f%%  range %.1f%%\n",
			100*float64(res.Hits4K)/hits, 100*float64(res.Hits2M)/hits,
			100*float64(res.Hits1G)/hits, 100*float64(res.HitsRange)/hits)
	} else {
		fmt.Fprintln(out, "  L1 hit attribution   no L1 TLB hits")
	}
	fmt.Fprintf(out, "  dynamic energy       %12.1f µJ  (%.3f pJ/ref)\n",
		res.EnergyPJ()/1e6, res.EnergyPerRefPJ())
	fmt.Fprintln(out, "  breakdown:")
	for a := energy.Account(0); a < energy.NumAccounts; a++ {
		pj := res.Energy.Get(a)
		if pj == 0 {
			continue
		}
		fmt.Fprintf(out, "    %-18s %10.1f µJ  (%5.1f%%)\n", a, pj/1e6, 100*pj/res.EnergyPJ())
	}
	if res.LiteLookupShare != nil {
		// The controller counts its actions over all monitored TLBs.
		fmt.Fprintf(out, "  Lite lookup shares (per monitored TLB, 1/2/4 ways; %d resizes, %d reactivations in all):\n",
			res.LiteResizes, res.LiteReactivations)
		for i, sh := range res.LiteLookupShare {
			fmt.Fprintf(out, "    TLB %d: 1w %.1f%%  2w %.1f%%  4w %.1f%%\n", i, 100*sh[0], 100*sh[1], 100*sh[2])
		}
	}
	if res.IntervalL1MPKI.Len() > 0 {
		fmt.Fprintf(out, "  L1 MPKI timeline:      %s\n", res.IntervalL1MPKI.Sparkline(60))
		fmt.Fprintf(out, "  energy/access timeline:%s\n", res.IntervalEnergyPerRefPJ.Sparkline(60))
		fmt.Fprintf(out, "  active-ways timeline:  %s\n", res.IntervalLiteWays.Sparkline(60))
	}
	if auditOn {
		fmt.Fprintf(out, "  audit: %d sampled accesses, %d structural audits, %d violations\n",
			res.Audit.Sampled, res.Audit.StructuralAudits, res.Audit.Violations)
	}
}
