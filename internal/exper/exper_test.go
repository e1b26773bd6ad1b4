package exper

import (
	"fmt"
	"strings"
	"testing"
)

// fastOpt keeps experiment tests quick: scaled-down footprints and short
// runs exercise every code path; shape assertions live in the calibrated
// full-scale runs (cmd/experiments, EXPERIMENTS.md).
var fastOpt = Options{Instrs: 400_000, Scale: 0.1, Seed: 7}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("registry has %d experiments", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("fig10"); !ok {
		t.Error("fig10 should resolve")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id should not resolve")
	}
	if len(IDs()) != len(all) {
		t.Error("IDs length mismatch")
	}
}

// TestEveryExperimentRenders runs every registered experiment at
// fastOpt, so an experiment added to All() is covered without editing
// this test.
func TestEveryExperimentRenders(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, _ := ByID(id)
			tables, err := e.Run(fastOpt)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 || !strings.Contains(tb.Markdown(), "|") {
					t.Errorf("table %q is empty", tb.Title)
				}
			}
		})
	}
}

// TestStaticTables checks that the pure-table experiments need no
// simulation: they render from zero Options, which would otherwise
// default to a full-length run.
func TestStaticTables(t *testing.T) {
	for _, id := range []string{"table1", "table2", "table3", "table4"} {
		e, _ := ByID(id)
		tables, err := e.Run(Options{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s returned no tables", id)
		}
		for _, tb := range tables {
			md := tb.Markdown()
			if len(md) == 0 || !strings.Contains(md, "|") {
				t.Errorf("%s produced empty markdown", id)
			}
		}
	}
}

// TestSensitivityAndAblationsFast checks that every sweep and ablation
// compares at least two settings and prints no NaN cell.
func TestSensitivityAndAblationsFast(t *testing.T) {
	for _, id := range IDs() {
		if !strings.HasPrefix(id, "sens-") && !strings.HasPrefix(id, "abl-") && id != "static" {
			continue
		}
		e, _ := ByID(id)
		tables, err := e.Run(fastOpt)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, tb := range tables {
			if len(tb.Rows) < 2 {
				t.Errorf("%s: table %q has %d rows, want a sweep of at least 2", id, tb.Title, len(tb.Rows))
			}
			if strings.Contains(tb.Markdown(), "NaN") {
				t.Errorf("%s: table %q contains NaN", id, tb.Title)
			}
		}
	}
}

func TestTable2ContainsPaperValues(t *testing.T) {
	e, _ := ByID("table2")
	tables, _ := e.Run(Options{})
	md := tables[0].Markdown()
	for _, v := range []string{"5.865", "8.078", "174.171", "1.806"} {
		if !strings.Contains(md, v) {
			t.Errorf("table2 missing Table 2 value %s", v)
		}
	}
}

func TestFig2Fast(t *testing.T) {
	tables, err := fig2(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("fig2 returned %d tables", len(tables))
	}
	// 8 workloads + mean row.
	if len(tables[0].Rows) != 9 {
		t.Fatalf("fig2a rows = %d", len(tables[0].Rows))
	}
}

func TestFig3Fast(t *testing.T) {
	tables, err := fig3(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	// Energy must be monotone non-decreasing as locality degrades.
	for _, row := range tables[0].Rows {
		prev := 0.0
		for _, cell := range row[1:] {
			var v float64
			if _, err := fmtSscan(cell, &v); err != nil {
				t.Fatalf("unparseable cell %q", cell)
			}
			if v+1e-9 < prev {
				t.Fatalf("fig3 row %s not monotone: %v", row[0], row)
			}
			prev = v
		}
	}
}

func TestFig4Fast(t *testing.T) {
	tables, err := fig4(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 8*4 {
		t.Fatalf("fig4 rows = %d, want 32", len(tables[0].Rows))
	}
}

func TestFig10And11Fast(t *testing.T) {
	tables, err := fig10(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("fig10 tables = %d", len(tables))
	}
	t11, err := fig11(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(t11) != 2 || len(t11[0].Rows) != 8 {
		t.Fatalf("fig11 shape wrong")
	}
}

func TestTable5Fast(t *testing.T) {
	tables, err := table5(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	// Way shares per TLB must sum to ~100%.
	for _, row := range tables[0].Rows {
		for _, group := range [][]string{row[1:4], row[4:7], row[7:10]} {
			var sum float64
			for _, cell := range group {
				var v float64
				fmtSscan(strings.TrimSuffix(cell, "%"), &v)
				sum += v
			}
			if sum < 99 || sum > 101 {
				t.Errorf("way shares of %s sum to %.1f%%: %v", row[0], sum, group)
			}
		}
	}
	// Hit attributions must sum to ~100% per config.
	for _, row := range tables[1].Rows {
		var a, b, c, d float64
		fmtSscan(strings.TrimSuffix(row[1], "%"), &a)
		fmtSscan(strings.TrimSuffix(row[2], "%"), &b)
		fmtSscan(strings.TrimSuffix(row[3], "%"), &c)
		fmtSscan(strings.TrimSuffix(row[4], "%"), &d)
		if s := a + b; s < 99 || s > 101 {
			t.Errorf("%s TLB_Lite hit split sums to %.1f", row[0], s)
		}
		if s := c + d; s < 99 || s > 101 {
			t.Errorf("%s RMM_Lite hit split sums to %.1f", row[0], s)
		}
	}
}

// fmtSscan wraps fmt.Sscanf for float parsing in tests.
func fmtSscan(s string, v *float64) (int, error) {
	return sscan(s, v)
}

func sscan(s string, v *float64) (int, error) {
	var f float64
	n, err := fmt.Sscanf(s, "%f", &f)
	*v = f
	return n, err
}
