package obsflags

import (
	"errors"
	"flag"
	"fmt"

	"xlate/internal/audit"
	"xlate/internal/audit/inject"
)

// ErrUsage marks a flag value or combination the binaries refuse (exit 2).
var ErrUsage = errors.New("invalid usage")

// Sim holds the parsed integrity flags.
type Sim struct {
	Audit       bool
	AuditSample uint64
	Inject      string
}

// RegisterSim declares the integrity flags (-audit, -audit-sample,
// -inject) on the default flag set.
func RegisterSim() *Sim {
	s := &Sim{}
	flag.BoolVar(&s.Audit, "audit", false, "attach the runtime integrity layer to every cell; a violation fails the cell")
	flag.Uint64Var(&s.AuditSample, "audit-sample", audit.DefaultSampleEvery, "oracle sampling cadence: cross-check every Nth access (1 = every access)")
	flag.StringVar(&s.Inject, "inject", "", `fault to inject into every cell: "kind" or "kind@refs" (flip-pfn, drop-inval, stale-range, skew-charge)`)
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
