package tps

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:  "Test",
		Header: []string{"name", "value"},
		Notes:  []string{"a caveat"},
	}
	tb.AddRow("alpha", "1")
	tb.AddRow("beta-longer", "2")
	out := tb.Render()
	for _, want := range []string{"Test", "name", "alpha", "beta-longer", "note: a caveat", "----"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + separator + 2 rows + note.
	if len(lines) != 6 {
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
}

func TestTableIContent(t *testing.T) {
	tb := TableI()
	out := tb.Render()
	for _, want := range []string{"256 Entry ROB", "1536 4k/2M", "32-entry fully-associative"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestPublicCatalogAccess(t *testing.T) {
	if len(Workloads()) < 20 {
		t.Errorf("catalog too small: %d", len(Workloads()))
	}
	if len(EvalSuite()) != 12 {
		t.Errorf("eval suite=%d, want 12", len(EvalSuite()))
	}
	if _, ok := WorkloadByName("gups"); !ok {
		t.Error("gups missing")
	}
	w := SparseWorkload(1<<24, 0.5)
	if w.Run == nil || w.FootprintBytes != 1<<24 {
		t.Error("sparse workload malformed")
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(FigureConfig{Refs: 20_000, Suite: smallSuite(t)})
	w := r.cfg.Suite[0]
	a, err := r.run(w, "tps", runFlags{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.run(w, "tps", runFlags{})
	if err != nil {
		t.Fatal(err)
	}
	if a.MMU != b.MMU {
		t.Error("memoized result differs")
	}
	if n := r.eng.size(); n != 1 {
		t.Errorf("cache size=%d", n)
	}
	// A different flag combination is a different run.
	if _, err := r.run(w, "tps", runFlags{smt: true}); err != nil {
		t.Fatal(err)
	}
	if n := r.eng.size(); n != 2 {
		t.Errorf("cache size=%d after distinct run", n)
	}
}

// smallSuite returns a cheap suite for figure plumbing tests.
func smallSuite(t *testing.T) []Workload {
	t.Helper()
	leela, ok := WorkloadByName("leela")
	if !ok {
		t.Fatal("leela missing")
	}
	deepsjeng, ok := WorkloadByName("deepsjeng")
	if !ok {
		t.Fatal("deepsjeng missing")
	}
	return []Workload{leela, deepsjeng}
}

func TestFigureTablesWellFormed(t *testing.T) {
	r := NewRunner(FigureConfig{Refs: 20_000, Suite: smallSuite(t)})
	figs := map[string]func() (*Table, error){
		"fig9":  r.Fig9,
		"fig10": r.Fig10,
		"fig11": r.Fig11,
		"fig15": r.Fig15,
		"fig16": r.Fig16,
		"fig18": r.Fig18,
	}
	for name, f := range figs {
		tb, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tb.Title == "" || len(tb.Header) == 0 || len(tb.Rows) == 0 {
			t.Errorf("%s: malformed table %+v", name, tb)
		}
		for i, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Errorf("%s row %d: %d cells for %d columns", name, i, len(row), len(tb.Header))
			}
		}
	}
}

func TestFig15CoverageMonotone(t *testing.T) {
	r := NewRunner(FigureConfig{Refs: 1, Suite: smallSuite(t)})
	tb, err := r.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 19 {
		t.Fatalf("rows=%d, want 19 page sizes", len(tb.Rows))
	}
	if tb.Rows[0][1] != "100.0%" {
		t.Errorf("4K coverage=%s, want 100.0%%", tb.Rows[0][1])
	}
}

func TestElimClamps(t *testing.T) {
	if elim(100, 200) != 0 {
		t.Error("negative elimination not clamped")
	}
	if elim(0, 5) != 0 {
		t.Error("zero baseline not handled")
	}
	if got := elim(100, 25); got != 0.75 {
		t.Errorf("elim=%f", got)
	}
}

func TestSavableClamps(t *testing.T) {
	d := Result{CyclesReal: 1000, WalkerCycles: 500}
	e := Result{CyclesReal: 800, WalkerCycles: 200}
	if got := savable(d, e); got < 0.66 || got > 0.67 {
		t.Errorf("savable=%f, want 200/300", got)
	}
	// No walker-cycle change: degenerate, defined as 1.
	if got := savable(e, e); got != 1 {
		t.Errorf("degenerate savable=%f", got)
	}
}

func TestEndToEndSmallFigure(t *testing.T) {
	// A full figure over a tiny suite: exercises the whole stack.
	r := NewRunner(FigureConfig{Refs: 20_000, Suite: smallSuite(t)})
	tb, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 { // 2 workloads + average
		t.Fatalf("rows=%d", len(tb.Rows))
	}
	if tb.Rows[2][0] != "average" {
		t.Errorf("last row=%v", tb.Rows[2])
	}
}
