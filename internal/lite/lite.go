// Package lite implements the paper's primary contribution: the Lite
// mechanism (§4.2) that monitors the utility of ways in the L1 TLBs and
// adaptively resizes them by way-disabling.
//
// Lite divides execution into fixed instruction-count intervals. During
// an interval it tracks:
//
//   - the actual-misses counter: lookups that missed in *all* L1 TLBs of
//     the core and went to the L2 TLB;
//   - per-TLB lru-distance counters (Figure 6): on every L1 hit, the
//     counter for the hit entry's LRU-stack bucket is incremented, so at
//     interval end counter[b] holds the misses that *would have*
//     occurred had the ways in bucket b been disabled — the accounting
//     idea of Dropsho et al. [20] and Qureshi & Patt's UMON [46];
//   - the previous interval's actual MPKI, to detect degradation.
//
// At interval end the decision algorithm (Figure 7) runs: if performance
// degraded beyond the threshold ε, or a low-probability random trigger
// fires (escaping local minima the monitor cannot see past, §4.2.2), all
// ways of all L1 TLBs are re-enabled; otherwise each TLB is independently
// downsized to the fewest ways whose predicted MPKI stays within ε of
// the actual MPKI. Disabled ways are invalidated, never written back
// (TLBs are read-only structures).
package lite

import (
	"fmt"
	"math/bits"
	"math/rand"

	"xlate/internal/tlb"
)

// Threshold is the ε of the decision algorithm: the acceptable MPKI
// increase over the reference (all-ways) MPKI. The paper uses a relative
// threshold for TLB_Lite (12.5 %) and an absolute one for RMM_Lite
// (0.1 MPKI), because a relative bound on a near-zero reference would
// forbid even negligible increases (§4.2.2 "Threshold").
type Threshold struct {
	Relative float64 // fractional increase; used when > 0
	Absolute float64 // MPKI increase; used when Relative == 0
}

// RelativeThreshold returns a relative ε.
func RelativeThreshold(frac float64) Threshold { return Threshold{Relative: frac} }

// AbsoluteThreshold returns an absolute ε in MPKI.
func AbsoluteThreshold(mpki float64) Threshold { return Threshold{Absolute: mpki} }

// Limit returns the highest acceptable MPKI given the reference MPKI.
func (t Threshold) Limit(refMPKI float64) float64 {
	if t.Relative > 0 {
		return refMPKI * (1 + t.Relative)
	}
	return refMPKI + t.Absolute
}

// String describes the threshold.
func (t Threshold) String() string {
	if t.Relative > 0 {
		return fmt.Sprintf("%.4g%% relative", t.Relative*100)
	}
	return fmt.Sprintf("%.4g MPKI absolute", t.Absolute)
}

// Config parameterizes the controller.
type Config struct {
	// IntervalInstrs is the monitoring interval length in instructions
	// (paper default 1 M; sensitivity analysis sweeps 1 M–10 M).
	IntervalInstrs uint64
	// Epsilon is the acceptable MPKI increase for way-disabling.
	Epsilon Threshold
	// ReactivateProb is the per-interval probability of re-enabling all
	// ways (paper sweeps 1/8–1/128; lower is slightly better).
	ReactivateProb float64
	// Seed drives the random reactivation draw deterministically.
	Seed int64

	// Ablation switches (not part of the paper's default mechanism).
	DisableRandomReactivation      bool
	DisableDegradationReactivation bool
	DisableDownsizing              bool
}

// DefaultConfig returns the paper's TLB_Lite parameters.
func DefaultConfig() Config {
	return Config{
		IntervalInstrs: 1_000_000,
		Epsilon:        RelativeThreshold(0.125),
		ReactivateProb: 1.0 / 32,
	}
}

// Validate checks the controller configuration, returning an error
// describing the first inconsistency. NewController panics on the same
// conditions; validating first keeps user-supplied configurations on
// the error path.
func (cfg Config) Validate() error {
	if cfg.IntervalInstrs == 0 {
		return fmt.Errorf("lite: zero interval")
	}
	if cfg.ReactivateProb < 0 || cfg.ReactivateProb > 1 {
		return fmt.Errorf("lite: reactivation probability %v outside [0,1]", cfg.ReactivateProb)
	}
	if cfg.Epsilon.Relative < 0 || cfg.Epsilon.Absolute < 0 {
		return fmt.Errorf("lite: negative threshold %v", cfg.Epsilon)
	}
	return nil
}

// monitor holds the per-TLB Lite state.
type monitor struct {
	t *tlb.SetAssoc
	// lruDist[b] counts hits in LRU-stack bucket b: bucket 0 is the MRU
	// position, bucket b≥1 covers positions [2^(b-1), 2^b). A TLB with n
	// physical ways needs log2(n)+1 counters (Figure 6).
	lruDist []uint64
	// lookupsAtWays[k] counts lookups performed while 2^k ways were
	// active — the Table 5 occupancy histogram. Lookups since the last
	// way change are still pending in the controller's count; attributed
	// is the part of that count already added here.
	lookupsAtWays []uint64
	attributed    uint64
}

func newMonitor(t *tlb.SetAssoc) *monitor {
	n := bits.Len(uint(t.Ways())) // log2(ways)+1 for power-of-two ways
	return &monitor{t: t, lruDist: make([]uint64, n), lookupsAtWays: make([]uint64, n)}
}

func (m *monitor) reset() {
	for i := range m.lruDist {
		m.lruDist[i] = 0
	}
}

// bucket maps an LRU-stack position to its counter index:
// floor(log2(pos))+1, and 0 for the MRU position (bits.Len(0) is 0).
func bucket(pos int) int { return bits.Len(uint(pos)) }

// extraMisses returns the additional misses this interval's hits would
// have become with only w (a power of two) active ways: the sum of the
// buckets whose positions lie at or beyond w.
func (m *monitor) extraMisses(w int) uint64 {
	var extra uint64
	for b := bits.Len(uint(w)); b < len(m.lruDist); b++ {
		extra += m.lruDist[b]
	}
	return extra
}

// Decision records one interval-end action, for tracing and tests.
type Decision struct {
	Interval     uint64
	ActualMPKI   float64
	Reactivated  bool  // all ways re-enabled
	RandomTrig   bool  // ... because of the random trigger
	DegradedTrig bool  // ... because MPKI degraded past ε
	Ways         []int // resulting active ways per monitored TLB
}

// Controller is one core's Lite mechanism, monitoring that core's
// L1-page TLBs.
type Controller struct {
	cfg  Config
	mons []*monitor
	rng  *rand.Rand

	lookups       uint64 // lookups recorded so far, across all intervals
	left          uint64 // instructions until the current interval ends
	actualMisses  uint64 // L1 misses (any structure) this interval
	prevMPKI      float64
	hasPrev       bool
	intervalCount uint64

	resizes       uint64
	reactivations uint64
	lastDecision  Decision
	onDecision    func(Decision)
}

// NewController builds a controller for the given L1 TLBs. Each TLB must
// have power-of-two associativity (the mechanism disables ways in powers
// of two).
func NewController(cfg Config, tlbs ...*tlb.SetAssoc) *Controller {
	if cfg.IntervalInstrs == 0 {
		panic("lite: zero interval")
	}
	if cfg.ReactivateProb < 0 || cfg.ReactivateProb > 1 {
		panic(fmt.Sprintf("lite: reactivation probability %v outside [0,1]", cfg.ReactivateProb))
	}
	c := &Controller{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), left: cfg.IntervalInstrs}
	for _, t := range tlbs {
		if t.Ways()&(t.Ways()-1) != 0 {
			panic(fmt.Sprintf("lite: TLB %s has non-power-of-two associativity %d", t.Name(), t.Ways()))
		}
		m := newMonitor(t)
		// Every way change closes the pending lookups at the old way
		// count, whether the decision algorithm or a caller made it.
		t.OnResize(func() { c.attribute(m) })
		c.mons = append(c.mons, m)
	}
	return c
}

// RecordLookup notes that all monitored L1 TLBs were probed for one
// memory operation. The lookup is attributed to each TLB's current
// active-way configuration (Table 5's occupancy data) when that
// configuration next changes or the share is read.
func (c *Controller) RecordLookup() { c.lookups++ }

// attribute adds m's pending lookups to the bucket of its current
// active-way count.
func (c *Controller) attribute(m *monitor) {
	m.lookupsAtWays[bits.Len(uint(m.t.ActiveWays()))-1] += c.lookups - m.attributed
	m.attributed = c.lookups
}

// RecordHit notes an L1 hit in monitored TLB idx at the given LRU-stack
// position (as returned by tlb.SetAssoc.Lookup).
func (c *Controller) RecordHit(idx, pos int) {
	m := c.mons[idx]
	b := bucket(pos)
	if b >= len(m.lruDist) {
		panic(fmt.Sprintf("lite: hit position %d beyond %d ways", pos, m.t.Ways()))
	}
	m.lruDist[b]++
}

// RecordMiss notes a lookup that missed in every L1 TLB and accessed the
// L2 TLB (the actual-misses counter).
func (c *Controller) RecordMiss() { c.actualMisses++ }

// AddInstructions advances execution by n instructions, running the
// decision algorithm at each interval boundary. It returns true if at
// least one boundary was crossed.
func (c *Controller) AddInstructions(n uint64) bool {
	if n < c.left {
		c.left -= n
		return false
	}
	c.endIntervals(n)
	return true
}

// endIntervals adds n instructions that reach at least one interval
// boundary and runs the decision algorithm once per boundary crossed.
//
//eeat:coldpath interval-end decisions; run once per IntervalInstrs instructions
func (c *Controller) endIntervals(n uint64) {
	instrs := c.cfg.IntervalInstrs - c.left + n
	for instrs >= c.cfg.IntervalInstrs {
		instrs -= c.cfg.IntervalInstrs
		c.endInterval()
	}
	c.left = c.cfg.IntervalInstrs - instrs
}

// endInterval runs the decision algorithm of Figure 7.
//
//eeat:coldpath interval-end decision; runs once per IntervalInstrs instructions
func (c *Controller) endInterval() {
	c.intervalCount++
	actualMPKI := float64(c.actualMisses) * 1000 / float64(c.cfg.IntervalInstrs)
	d := Decision{Interval: c.intervalCount, ActualMPKI: actualMPKI}

	degraded := c.hasPrev && actualMPKI > c.cfg.Epsilon.Limit(c.prevMPKI) &&
		!c.cfg.DisableDegradationReactivation
	random := !c.cfg.DisableRandomReactivation && c.rng.Float64() < c.cfg.ReactivateProb

	switch {
	case degraded || random:
		d.Reactivated = true
		d.DegradedTrig = degraded
		d.RandomTrig = random && !degraded
		for _, m := range c.mons {
			if m.t.ActiveWays() != m.t.Ways() {
				m.t.SetActiveWays(m.t.Ways())
			}
		}
		c.reactivations++
	case !c.cfg.DisableDownsizing:
		limit := c.cfg.Epsilon.Limit(actualMPKI)
		for _, m := range c.mons {
			target := m.t.ActiveWays()
			// Find the smallest power-of-two way count whose predicted
			// MPKI stays within ε.
			for w := 1; w < m.t.ActiveWays(); w *= 2 {
				potential := float64(c.actualMisses+m.extraMisses(w)) * 1000 /
					float64(c.cfg.IntervalInstrs)
				if potential <= limit {
					target = w
					break
				}
			}
			if target != m.t.ActiveWays() {
				m.t.SetActiveWays(target)
				c.resizes++
			}
		}
	}

	for _, m := range c.mons {
		d.Ways = append(d.Ways, m.t.ActiveWays())
		m.reset()
	}
	c.prevMPKI = actualMPKI
	c.hasPrev = true
	c.actualMisses = 0
	c.lastDecision = d
	if c.onDecision != nil {
		c.onDecision(d)
	}
}

// OnDecision registers fn to be called after every interval-end
// decision, with the Decision just taken. The telemetry layer uses it
// to trace resize/reactivation events; fn observes, it must not mutate
// the monitored TLBs.
func (c *Controller) OnDecision(fn func(Decision)) { c.onDecision = fn }

// CheckInvariants verifies the controller's view of its monitored TLBs:
// every active-way count must be a power of two within the physical
// associativity (the decision algorithm only ever selects such counts),
// and the monitor's counter geometry must match the TLB. It is
// allocation-free production API for the runtime auditor.
func (c *Controller) CheckInvariants() error {
	for i, m := range c.mons {
		w := m.t.ActiveWays()
		if w < 1 || w > m.t.Ways() || w&(w-1) != 0 {
			return fmt.Errorf("lite: monitored TLB %s has %d active ways (physical %d; must be a power of two)",
				m.t.Name(), w, m.t.Ways())
		}
		if want := bits.Len(uint(m.t.Ways())); len(m.lruDist) != want {
			return fmt.Errorf("lite: monitor %d has %d lru-distance counters, geometry needs %d",
				i, len(m.lruDist), want)
		}
	}
	return nil
}

// LastDecision returns the most recent interval-end decision.
func (c *Controller) LastDecision() Decision { return c.lastDecision }

// Intervals returns the number of completed intervals.
func (c *Controller) Intervals() uint64 { return c.intervalCount }

// Resizes returns the number of individual TLB downsizing actions taken.
func (c *Controller) Resizes() uint64 { return c.resizes }

// Reactivations returns the number of full-reactivation events.
func (c *Controller) Reactivations() uint64 { return c.reactivations }

// LookupShareAtWays returns, for monitored TLB idx, the fraction of
// lookups performed at each active-way count; index k of the result is
// the share at 2^k ways. This is Table 5's left half.
func (c *Controller) LookupShareAtWays(idx int) []float64 {
	m := c.mons[idx]
	c.attribute(m)
	var total uint64
	for _, v := range m.lookupsAtWays {
		total += v
	}
	out := make([]float64, len(m.lookupsAtWays))
	if total == 0 {
		return out
	}
	for k, v := range m.lookupsAtWays {
		out[k] = float64(v) / float64(total)
	}
	return out
}
