package obsflags

import (
	"errors"
	"flag"
	"fmt"

	"xlate/internal/audit"
	"xlate/internal/audit/inject"
	"xlate/internal/tracec"
)

// ErrUsage marks a flag value or combination the binaries refuse (exit 2).
var ErrUsage = errors.New("invalid usage")

// Sim holds the parsed simulation flags.
type Sim struct {
	TraceStore    string
	CompileTraces bool
	Audit         bool
	AuditSample   uint64
	Inject        string

	daemon bool
}

// RegisterSim declares the simulation flags on the default flag set.
// eeatd passes daemon: there a store alone enables trace ingestion, and
// the integrity flags (-audit, -audit-sample, -inject) are not declared.
func RegisterSim(daemon bool) *Sim {
	s := &Sim{daemon: daemon}
	storeHelp := "segment store directory for -compile-traces"
	if daemon {
		storeHelp = "segment store directory: enables POST /v1/traces ingestion and trace:<key> workloads (DESIGN.md §15)"
	}
	flag.StringVar(&s.TraceStore, "trace-store", "", storeHelp)
	flag.BoolVar(&s.CompileTraces, "compile-traces", false, "compile each workload into a replayable trace segment once (cached in -trace-store) and replay it for every cell that shares it instead of live synthesis")
	if !daemon {
		flag.BoolVar(&s.Audit, "audit", false, "attach the runtime integrity layer to every cell; a violation fails the cell")
		flag.Uint64Var(&s.AuditSample, "audit-sample", audit.DefaultSampleEvery, "oracle sampling cadence: cross-check every Nth access (1 = every access)")
		flag.StringVar(&s.Inject, "inject", "", `fault to inject into every cell: "kind" or "kind@refs" (flip-pfn, drop-inval, stale-range, skew-charge)`)
	}
	return s
}

// Integrity returns the audit configuration and the -inject fault. A
// malformed -inject wraps ErrUsage.
func (s *Sim) Integrity() (audit.Config, inject.Fault, error) {
	fault, err := inject.Parse(s.Inject)
	if err != nil {
		return audit.Config{}, inject.Fault{}, fmt.Errorf("%v: %w", err, ErrUsage)
	}
	return audit.Config{Enabled: s.Audit, SampleEvery: s.AuditSample}, fault, nil
}

// Executor checks the trace flags and returns the cell executor they ask
// for, its store opened. -compile-traces needs -trace-store and, outside
// eeatd, where no cell reads a store otherwise, the converse holds too
// (ErrUsage). Without a store the Executor runs model cells live.
func (s *Sim) Executor(logf func(format string, args ...any)) (*tracec.Executor, error) {
	switch {
	case s.CompileTraces && s.TraceStore == "":
		return nil, fmt.Errorf("-compile-traces needs -trace-store: %w", ErrUsage)
	case !s.daemon && s.TraceStore != "" && !s.CompileTraces:
		return nil, fmt.Errorf("-trace-store needs -compile-traces: %w", ErrUsage)
	}
	ex := &tracec.Executor{CompileModels: s.CompileTraces, Logf: logf}
	if s.TraceStore != "" {
		store, err := tracec.OpenStore(s.TraceStore, 0, 0)
		if err != nil {
			return nil, err
		}
		ex.Store = store
	}
	return ex, nil
}
