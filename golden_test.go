package tps

// Golden-output regression test: regenerates one small figure at the seed
// configuration and compares byte-for-byte against a checked-in golden
// file. Any change to workload generation, the translation path, TLB
// replacement, or table rendering that shifts a modeled statistic shows up
// here as a diff — performance work must keep this output identical.
//
// Refresh deliberately (after a change that intends to alter results):
//
//	go test -run TestFig10Golden -update .

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

func TestFig10Golden(t *testing.T) {
	// gcc is the suite's smallest TLB-intensive footprint (208 MB): its
	// init sweep faults, promotes, and walks like the full-size runs while
	// keeping the test in tier-1 time. leela adds the cache-friendly,
	// low-MPKI end of the spectrum.
	var suite []Workload
	for _, name := range []string{"gcc", "leela"} {
		w, ok := WorkloadByName(name)
		if !ok {
			t.Fatalf("%s missing from catalog", name)
		}
		suite = append(suite, w)
	}
	r := NewRunner(FigureConfig{Refs: 20000, Seed: 42, Suite: suite, Parallelism: 1})
	tbl, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	got := tbl.Render()

	const golden = "testdata/fig10_refs20000_seed42.golden"
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
		t.Errorf("Figure 10 output diverged from %s (run with -update to refresh deliberately)\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestAllFiguresGolden pins the whole `figures -all` surface — functional,
// SMT, cycle-model, fragmentation, footprint and census tables — on a
// small suite. The golden file is exactly the stdout of
//
//	figures -all -refs 6000 -suite gcc,leela -progress=false
//
// and is refreshed only deliberately:
//
//	go test -run TestAllFiguresGolden -update .
func TestAllFiguresGolden(t *testing.T) {
	var suite []Workload
	for _, name := range []string{"gcc", "leela"} {
		w, ok := WorkloadByName(name)
		if !ok {
			t.Fatalf("%s missing from catalog", name)
		}
		suite = append(suite, w)
	}
	r := NewRunner(FigureConfig{Refs: 6000, Seed: 42, Suite: suite})
	var got strings.Builder
	// The order cmd/figures -all prints in, one Println per table.
	for _, fig := range []func() (*Table, error){
		func() (*Table, error) { return TableI(), nil }, r.Fig2, r.Fig3, r.Fig8, r.Fig9, r.Fig10, r.Fig11,
		r.Fig12, r.Fig13, r.Fig14, r.Fig15, r.Fig16, r.Fig17, r.Fig18,
	} {
		tbl, err := fig()
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString(tbl.Render() + "\n")
	}

	const golden = "testdata/all_refs6000_gcc_leela_seed42.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("figures -all output diverged from %s (run with -update to refresh deliberately)\n%s", golden, firstDiff(got.String(), string(want)))
	}
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
