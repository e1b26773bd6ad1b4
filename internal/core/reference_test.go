package core_test

import (
	"context"
	"fmt"
	"go/parser"
	"go/token"
	"math"
	"reflect"
	"strconv"
	"testing"

	"xlate/internal/core"
	"xlate/internal/energy"
	"xlate/internal/stats"
	"xlate/internal/trace"
	"xlate/internal/workloads"
)

// TestSimulatorMatchesReference runs every configuration on two
// workloads through core and through the reference MMU of
// refsim_test.go. Every Result field but Energy must be equal; each
// energy account must agree to a relative 1e-9, since the reference
// prices counted events once instead of summing per probe. Lite runs
// on 50 K-instruction intervals so that, for each Lite configuration,
// a short stream sees it shrink an L1 TLB in use and later restore it.
func TestSimulatorMatchesReference(t *testing.T) {
	const (
		instrs       = 3_000_000
		liteInterval = 50_000
		seed         = 7
	)
	var refs []trace.Ref
	resized := map[core.ConfigKind]bool{}
	for _, name := range []string{"mcf", "astar"} {
		spec, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		for _, k := range append(core.AllConfigs(), core.ExtendedConfigs()...) {
			t.Run(name+"/"+k.String(), func(t *testing.T) {
				rc, ok := refConfigs[k.String()]
				if !ok {
					t.Fatalf("the reference has no configuration %q", k)
				}
				pol := rc.policy()
				if got := core.PolicyFor(k, 0.5); got != pol {
					t.Fatalf("PolicyFor = %+v, reference policy %+v", got, pol)
				}
				as, regions, err := spec.Map(workloads.BuildOptions{Policy: pol, Seed: seed, Scale: 0.1})
				if err != nil {
					t.Fatal(err)
				}
				// Both sides replay one synthesized stream.
				refs = refs[:0]
				gen := spec.Generator(regions, seed, 0)
				for n := uint64(0); n < instrs; {
					r := gen.Next()
					refs = append(refs, r)
					n += r.Instrs
				}
				p := core.DefaultParams(k)
				p.Lite.IntervalInstrs = liteInterval
				sim, err := core.NewSimulator(p, as)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.RunContext(context.Background(), trace.NewReplay(refs), instrs)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefMMU(rc, as, p.Lite.Seed, liteInterval)
				want := ref.run(trace.NewReplay(refs), instrs)
				for _, d := range resultDiff(got, asResult(k, want)) {
					t.Error(d)
				}
				if shrankAndRestored(ref) {
					resized[k] = true
				}
			})
		}
	}
	for _, k := range append(core.AllConfigs(), core.ExtendedConfigs()...) {
		if refConfigs[k.String()].lite && !resized[k] {
			t.Errorf("%v: on no workload did Lite shrink an L1 TLB in use and later restore it", k)
		}
	}
}

// asResult is the reference's run in core.Result's shape. The interval
// series are off in these runs, so they carry only their names.
func asResult(k core.ConfigKind, r refResult) core.Result {
	return core.Result{
		Config:       k.String(),
		Instructions: r.Instructions, MemRefs: r.MemRefs,
		L1Misses: r.L1Misses, L2Misses: r.L2Misses, WalkRefs: r.WalkRefs,
		CyclesTLBMiss: r.CyclesTLBMiss,
		Energy:        r.Energy,
		Hits4K:        r.Hits4K, Hits2M: r.Hits2M, Hits1G: r.Hits1G, HitsRange: r.HitsRange,
		LiteLookupShare:        r.LiteLookupShare,
		IntervalL1MPKI:         stats.Series{Name: "L1 MPKI per interval"},
		IntervalEnergyPerRefPJ: stats.Series{Name: "energy/access (pJ) per interval"},
		IntervalLiteWays:       stats.Series{Name: "L1-4KB active ways per interval"},
		LiteResizes:            r.LiteResizes,
		LiteReactivations:      r.LiteReactivations,
		MispredictRate:         r.MispredictRate,
	}
}

// resultDiff lists, one line each, the fields where core's result
// departs from the reference's: exact equality everywhere but Energy,
// whose accounts may differ by a relative 1e-9.
func resultDiff(got, want core.Result) []string {
	var diffs []string
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		if name == "Energy" {
			continue
		}
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			diffs = append(diffs, fmt.Sprintf("%s: core %v, reference %v", name, g, w))
		}
	}
	for a := energy.Account(0); a < energy.NumAccounts; a++ {
		g, w := got.Energy[a], want.Energy[a]
		if math.Abs(g-w) > 1e-9*math.Max(math.Abs(g), math.Abs(w)) {
			diffs = append(diffs, fmt.Sprintf("Energy[%v]: core %.6f pJ, reference %.6f pJ", a, g, w))
		}
	}
	return diffs
}

// shrankAndRestored reports whether, after some interval, Figure 7 ran
// an L1 page TLB that holds translations below its physical ways, and
// after a later one re-enabled all of them: the run took both the
// downsizing and the reactivation branch on a TLB in use.
func shrankAndRestored(m *refMMU) bool {
	for i, t := range m.l1 {
		shrunk := false
		for _, ways := range m.waysHistory {
			if ways[i] < t.ways {
				shrunk = true
			} else if shrunk && t.enabled {
				return true
			}
		}
	}
	return false
}

// TestReferenceImportsStayIndependent keeps the reference MMU free of
// the packages it checks.
func TestReferenceImportsStayIndependent(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "refsim_test.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{"xlate/internal/core": true, "xlate/internal/tlb": true,
		"xlate/internal/lite": true, "xlate/internal/mmucache": true, "xlate/internal/rmm": true}
	for _, im := range f.Imports {
		if path, _ := strconv.Unquote(im.Path.Value); banned[path] {
			t.Errorf("refsim_test.go imports %s", path)
		}
	}
}
