package core

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"xlate/internal/energy"
)

// TestHierarchyPerConfig pins DESIGN.md §4: the structures each
// configuration builds, which L1 page TLBs Lite monitors (in
// Result.LiteLookupShare order), and whether the L1 is a single mixed
// TLB. Distinct L1 associativities make the monitored order observable:
// a share vector has log2(ways)+1 entries.
func TestHierarchyPerConfig(t *testing.T) {
	const (
		l14k = energy.L14KB
		l12m = energy.L12MB
		l11g = energy.L11GB
		l1r  = energy.L1Range
		l2   = energy.L2Page
		l2r  = energy.L2Range
		pde  = energy.PDE
		pdpt = energy.PDPTE
		pml4 = energy.PML4
	)
	cases := []struct {
		kind       ConfigKind
		structures []string
		liteShares []int // len(LiteLookupShare[i]) per monitored TLB
		mixed      bool
	}{
		{Cfg4KB, []string{l14k, l11g, l2, pde, pdpt, pml4}, nil, false},
		{CfgTHP, []string{l14k, l12m, l11g, l2, pde, pdpt, pml4}, nil, false},
		{CfgTLBLite, []string{l14k, l12m, l11g, l2, pde, pdpt, pml4}, []int{4, 2, 3}, false},
		{CfgRMM, []string{l14k, l12m, l11g, l2, l2r, pde, pdpt, pml4}, nil, false},
		{CfgTLBPP, []string{l14k, l2, pde, pdpt, pml4}, nil, true},
		{CfgRMMLite, []string{l14k, l11g, l1r, l2, l2r, pde, pdpt, pml4}, []int{4, 3}, false},
		{CfgTLBPred, []string{l14k, l2, pde, pdpt, pml4}, nil, true},
		{CfgCombined, []string{l14k, l1r, l2, l2r, pde, pdpt, pml4}, []int{4}, true},
	}
	if len(cases) != len(AllConfigs())+len(ExtendedConfigs()) {
		t.Fatalf("table covers %d configurations, want every one", len(cases))
	}
	db := energy.Table2()
	db.Register(energy.L14KB, 8, energy.Cost{ReadPJ: 9, WritePJ: 10})
	for _, c := range cases {
		t.Run(c.kind.String(), func(t *testing.T) {
			p := DefaultParams(c.kind)
			p.L14KEntries, p.L14KWays = 64, 8
			p.L12MEntries, p.L12MWays = 32, 2
			p.EnergyDB = db
			as, _ := mkSpace(t, c.kind, 0.5, 1<<20)
			sim, err := NewSimulator(p, as)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for name := range sim.StructureStats() {
				got = append(got, name)
			}
			sort.Strings(got)
			want := append([]string(nil), c.structures...)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("structures = %v, want %v", got, want)
			}
			var shares []int
			for _, s := range sim.Result().LiteLookupShare {
				shares = append(shares, len(s))
			}
			if !reflect.DeepEqual(shares, c.liteShares) {
				t.Errorf("Lite share vector lengths = %v, want %v", shares, c.liteShares)
			}
			if mixed := len(sim.l1) == 1 && sim.l1[0].mixed; mixed != c.mixed {
				t.Errorf("mixed L1 = %v, want %v", mixed, c.mixed)
			}
		})
	}
}

// An energy database that cannot price a structure the configuration
// may charge is a parameter error at validation, not a panic mid-run.
func TestValidateRejectsIncompleteEnergyDB(t *testing.T) {
	drop := func(name string, ways int) *energy.DB {
		var kept []energy.Entry
		for _, e := range energy.Table2().Entries() {
			if e.Name != name || e.Ways != ways {
				kept = append(kept, e)
			}
		}
		return energy.FromEntries(kept)
	}
	cases := []struct {
		kind ConfigKind
		db   *energy.DB
		ok   bool
	}{
		{CfgTLBLite, drop(energy.L12MB, 2), false}, // reached once Lite shrinks the L1-2MB TLB
		{CfgTHP, drop(energy.L12MB, 2), true},      // THP never resizes it
		{Cfg4KB, drop(energy.L11GB, 4), false},     // the L1-1GB TLB is always built
		{CfgRMM, drop(energy.L2Range, 0), false},
		{CfgTHP, drop(energy.L2Range, 0), true},
		{Cfg4KB, drop(energy.PDPTE, 0), false},
		{Cfg4KB, drop(energy.L2Cache, 0), false}, // priced into every walk reference
		{CfgTHP, new(energy.DB), false},
	}
	for _, c := range cases {
		p := DefaultParams(c.kind)
		p.EnergyDB = c.db
		err := p.Validate()
		if c.ok && err != nil {
			t.Errorf("%v: unexpected error %v", c.kind, err)
		}
		if !c.ok && !errors.Is(err, ErrInvalidParams) {
			t.Errorf("%v: Validate = %v, want ErrInvalidParams", c.kind, err)
		}
		if !c.ok {
			as, _ := mkSpace(t, c.kind, 0.5, 1<<20)
			if _, err := NewSimulator(p, as); !errors.Is(err, ErrInvalidParams) {
				t.Errorf("%v: NewSimulator = %v, want ErrInvalidParams", c.kind, err)
			}
		}
	}
}
