package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"xlate/internal/exper"
	"xlate/internal/telemetry"
)

// ErrSoakInvariant marks a soak run that completed but violated a
// verified invariant: a suite report diverged from the golden, or the
// global cells-executed count shows a cell executed twice (or lost).
var ErrSoakInvariant = errors.New("cluster: soak invariant violated")

// SoakConfig parameterizes RunSoak, the chaos soak harness behind
// `eeatd -cluster N -soak S` (DESIGN.md §12): S concurrent suites
// through one coordinator while the chaos plan kills workers and the
// coordinator itself.
type SoakConfig struct {
	// DevConfig is the cluster every suite runs through. Its Options
	// are shared — the suites are intentionally identical, so the
	// coordinator's cross-suite dedup and the no-double-execution
	// invariant are both exercised — and a killcoord:N directive in its
	// Chaos requires its Journal.
	DevConfig
	// Suites is the number of concurrent suites (default 2).
	Suites int
	// Experiments is the suite every goroutine runs.
	Experiments []exper.Experiment
	// Golden, when non-nil, is the report every suite must match byte
	// for byte. Nil compares every suite against suite 0 instead.
	Golden []byte
}

// restartDelay is how long the soak supervisor leaves a killed
// coordinator dead before restarting it — long enough for workers to
// finish admitted cells, so the takeover has federated cache hits to
// harvest.
const restartDelay = 300 * time.Millisecond

// SoakResult is the outcome of one soak run.
type SoakResult struct {
	Suites      int // suites that ran to completion
	Mismatches  int // suites whose report differed from the golden
	Restarts    int // coordinator takeover generations
	UniqueCells int // distinct cells completed (journal + final generation)

	// Counter snapshot across all coordinator generations.
	CellsExecuted  uint64
	CellsFederated uint64
	CellsDeduped   uint64
	Requeues       uint64
	WorkersDead    uint64

	// Report is suite 0's rendered report.
	Report string

	// Load is the measured side of the run: throughput and per-stage
	// latency quantiles read back from the cluster's stage histograms,
	// with the wall clock covering the suite phase only (cluster
	// startup and teardown excluded).
	Load LoadReport
}

// RunSoak drives the chaos soak: start the dev cluster, run
// cfg.Suites identical suites concurrently, let the chaos plan kill
// processes (a killed coordinator is restarted after restartDelay and
// the suites re-run against the takeover, which resumes from the
// journal), and verify at the end that every suite's report matched
// the golden and that no cell was executed twice — the global
// cells-executed counter equals the number of distinct cells.
func RunSoak(ctx context.Context, cfg SoakConfig) (SoakResult, error) {
	if cfg.Suites <= 0 {
		cfg.Suites = 2
	}
	for _, d := range cfg.Chaos {
		if d.Kind == kindKillCoord && cfg.Journal == "" {
			return SoakResult{}, fmt.Errorf("%w: killcoord needs -journal (the takeover has nothing to resume from)", errBadChaos)
		}
	}

	dev, err := StartDev(ctx, cfg.DevConfig)
	if err != nil {
		return SoakResult{}, err
	}
	defer dev.Close()
	// StartDev filled the registry and logger defaults.
	cfg.DevConfig = dev.cfg

	// The supervisor: a killed coordinator stays down for restartDelay
	// (workers finish their admitted cells into their caches), then the
	// takeover generation starts and the suites resume against it.
	supCtx, supCancel := context.WithCancel(ctx)
	var supDone sync.WaitGroup
	supDone.Add(1)
	go func() {
		defer supDone.Done()
		for {
			select {
			case <-supCtx.Done():
				return
			case <-time.After(20 * time.Millisecond):
			}
			if !dev.CoordinatorDown() {
				continue
			}
			cfg.Logf("soak: coordinator down; restarting in %s", restartDelay)
			if sleepCtx(supCtx, restartDelay) != nil {
				return
			}
			if err := dev.RestartCoordinator(supCtx); err != nil {
				cfg.Logf("soak: coordinator restart: %v", err)
			}
		}
	}()

	reports := make([]string, cfg.Suites)
	errs := make([]error, cfg.Suites)
	var suites sync.WaitGroup
	suiteStart := time.Now()
	for i := 0; i < cfg.Suites; i++ {
		suites.Add(1)
		go func(i int) {
			defer suites.Done()
			reports[i], errs[i] = runSoakSuite(ctx, dev, cfg, i)
		}(i)
	}
	suites.Wait()
	suiteWall := time.Since(suiteStart)
	supCancel()
	supDone.Wait()

	res := SoakResult{
		Suites:   cfg.Suites,
		Restarts: int(soakMetric(cfg.Registry, "xlate_cluster_coordinator_restarts_total")),
		Load:     MeasureLoad(cfg.Registry, suiteWall),
	}
	for i, err := range errs {
		if err != nil {
			return res, fmt.Errorf("cluster: soak suite %d: %w", i, err)
		}
	}
	golden := cfg.Golden
	if golden == nil {
		golden = []byte(reports[0])
	}
	for i, rep := range reports {
		if !bytes.Equal([]byte(rep), golden) {
			res.Mismatches++
			cfg.Logf("soak: suite %d report differs from the golden", i)
		}
	}
	res.Report = reports[0]
	res.UniqueCells = len(dev.Coordinator().CompletedCells())
	res.CellsExecuted = soakMetric(cfg.Registry, "xlate_cluster_cells_executed_total")
	res.CellsFederated = soakMetric(cfg.Registry, "xlate_cluster_cells_federated_total")
	res.CellsDeduped = soakMetric(cfg.Registry, "xlate_cluster_cells_deduped_total")
	res.Requeues = soakMetric(cfg.Registry, "xlate_cluster_requeues_total")
	res.WorkersDead = soakMetric(cfg.Registry, "xlate_cluster_workers_dead_total")

	if res.CellsExecuted != uint64(res.UniqueCells) {
		return res, fmt.Errorf("cluster: soak executed %d cells for %d distinct cells — a cell was re-executed or lost: %w",
			res.CellsExecuted, res.UniqueCells, ErrSoakInvariant)
	}
	if res.Mismatches > 0 {
		return res, fmt.Errorf("cluster: soak: %d of %d suite reports differ from the golden: %w",
			res.Mismatches, cfg.Suites, ErrSoakInvariant)
	}
	cfg.Logf("soak: %d suites byte-identical; %d cells executed once each (%d federated, %d deduped, %d restarts)",
		res.Suites, res.CellsExecuted, res.CellsFederated, res.CellsDeduped, res.Restarts)
	// A fully clean soak retires the crash journal, mirroring the dev
	// runner's clean-run cleanup; any failure above keeps it so the
	// next start resumes.
	if err := dev.Coordinator().RemoveJournal(); err != nil {
		cfg.Logf("soak: %v", err)
	}
	return res, nil
}

// runSoakSuite runs one suite to completion, re-running it against the
// takeover coordinator whenever a run dies with the coordinator. Each
// re-run resumes: journaled cells preload the harness memo, so only
// the gap executes.
func runSoakSuite(ctx context.Context, dev *DevCluster, cfg SoakConfig, i int) (string, error) {
	for attempt := 1; ; attempt++ {
		results, err := dev.Run(ctx, cfg.Experiments)
		if err != nil {
			if errors.Is(err, ErrCoordinatorDown) && ctx.Err() == nil {
				cfg.Logf("soak: suite %d lost the coordinator (attempt %d); waiting for takeover", i, attempt)
				if werr := dev.WaitCoordinator(ctx); werr != nil {
					return "", werr
				}
				continue
			}
			return "", err
		}
		var buf bytes.Buffer
		if n := WriteReport(&buf, results); n != 0 {
			return "", fmt.Errorf("%d experiments failed", n)
		}
		return buf.String(), nil
	}
}

// soakMetric reads a counter by name; registering an existing name
// returns the existing handle.
func soakMetric(reg *telemetry.Registry, name string) uint64 {
	return reg.Counter(name, "").Load()
}
