package tps

// Golden-output regression tests: each regenerates a figures run at the
// seed configuration and compares it byte-for-byte against a checked-in
// golden file. Any change to workload generation, the translation path,
// TLB replacement, scheme labels, or table rendering that shifts a modeled
// statistic shows up here as a diff — performance and refactoring work
// must keep this output identical.
//
// Refresh deliberately (after a change that intends to alter results):
//
//	go test -run Golden -update .

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenSuite is the small suite the golden runs are pinned on: gcc is
// the suite's smallest TLB-intensive footprint (208 MB) — its init sweep
// faults, promotes, and walks like the full-size runs while keeping the
// tests in tier-1 time — and leela adds the cache-friendly, low-MPKI end
// of the spectrum.
func goldenSuite(t *testing.T) []Workload {
	t.Helper()
	var suite []Workload
	for _, name := range []string{"gcc", "leela"} {
		w, ok := WorkloadByName(name)
		if !ok {
			t.Fatalf("%s missing from catalog", name)
		}
		suite = append(suite, w)
	}
	return suite
}

// renderTables renders tables exactly as cmd/figures prints them: one
// Println per table.
func renderTables(t *testing.T, figs ...func() (*Table, error)) string {
	t.Helper()
	var out strings.Builder
	for _, fig := range figs {
		tbl, err := fig()
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(tbl.Render() + "\n")
	}
	return out.String()
}

// checkGolden compares got against the golden file, rewriting it first
// under -update.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output diverged from %s (run with -update to refresh deliberately)\n%s", golden, firstDiff(got, string(want)))
	}
}

func TestFig10Golden(t *testing.T) {
	r := NewRunner(FigureConfig{Refs: 20000, Seed: 42, Suite: goldenSuite(t), Parallelism: 1})
	tbl, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/fig10_refs20000_seed42.golden", tbl.Render())
}

// TestAllFiguresGolden pins the whole `figures -all` surface — functional,
// SMT, cycle-model, fragmentation, footprint and census tables — on a
// small suite. The golden file is exactly the stdout of
//
//	figures -all -refs 6000 -suite gcc,leela -progress=false
func TestAllFiguresGolden(t *testing.T) {
	r := NewRunner(FigureConfig{Refs: 6000, Seed: 42, Suite: goldenSuite(t)})
	// The order cmd/figures -all prints in.
	got := renderTables(t,
		func() (*Table, error) { return TableI(), nil }, r.Fig2, r.Fig3, r.Fig8, r.Fig9, r.Fig10, r.Fig11,
		r.Fig12, r.Fig13, r.Fig14, r.Fig15, r.Fig16, r.Fig17, r.Fig18)
	checkGolden(t, "testdata/all_refs6000_gcc_leela_seed42.golden", got)
}

// TestAblationsGolden pins every design-choice ablation and both
// extension tables on the default evaluation suite. The golden file is
// exactly the stdout of
//
//	figures -ablations -refs 100000 -progress=false
//
// 100 K refs, not the 6 K of the -all golden: the compaction daemon runs
// every Refs/2 references, so a tiny budget fires it hundreds of times
// during warm-up and the run gets slower, not faster.
func TestAblationsGolden(t *testing.T) {
	r := NewRunner(FigureConfig{Refs: 100000, Seed: 42})
	// The order cmd/figures -ablations prints in.
	got := renderTables(t,
		r.AblationAliasStrategy, r.AblationPromotionThreshold, r.AblationReservationSizing,
		r.AblationTPSTLBSize, r.AblationSkewedTLB, r.AblationFiveLevel,
		r.ExtCompactionDaemon, r.ExtCowPolicies)
	checkGolden(t, "testdata/ablations_refs100000_seed42.golden", got)
}

// TestSchemeGridGolden pins the every-scheme comparison grid, column
// labels included. The golden file is exactly the stdout of
//
//	figures -schemes all -refs 6000 -suite gcc,leela -progress=false
func TestSchemeGridGolden(t *testing.T) {
	schemes, err := SchemesByName(SchemeNames())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(FigureConfig{Refs: 6000, Seed: 42, Suite: goldenSuite(t)})
	got := renderTables(t, func() (*Table, error) { return r.SchemeGrid(schemes) })
	checkGolden(t, "testdata/schemes_all_refs6000_gcc_leela_seed42.golden", got)
}

// firstDiff describes the first differing line of two renderings.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
	return "outputs differ only in length"
}
