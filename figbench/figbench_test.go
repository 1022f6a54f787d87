package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"tps"
	"tps/internal/trace"
)

func TestChangedTableByteFailsCheck(t *testing.T) {
	const tables = "Figure 1\nrow 1.00\n"
	book := digestBook{"w": {"1": digestOf(tables)}}
	good := sweep{tables: tables, cells: 16}

	ok := book.check("w", 1, []sweep{good, good})
	if ok.status != verified || ok.failed != 0 || ok.attempted != 32 {
		t.Fatalf("unchanged tables: %+v", ok)
	}

	changed := []byte(tables)
	changed[len(changed)-2] ^= 1 // one byte of one table
	wrong := sweep{tables: string(changed), cells: 16}
	if got := book.check("w", 1, []sweep{wrong, wrong}); got.status != mismatch || got.failed != 32 {
		t.Fatalf("changed byte in every sweep: %+v", got)
	}
	bad := book.check("w", 1, []sweep{good, wrong})
	if bad.status != mismatch || bad.failed != 16 {
		t.Fatalf("changed byte: %+v", bad)
	}
	res := report(&strings.Builder{}, endToEnd, map[string]float64{
		"ok_frac": 1 - float64(bad.failed)/float64(bad.attempted),
	}, bad)
	if res.Correct || res.Failed != 16 || res.Metrics["ok_frac"].Value != 0.5 {
		t.Fatalf("result line: %+v", res)
	}
}

func TestUnrecordedSeedIsUnverified(t *testing.T) {
	book := digestBook{"w": {"1": digestOf("a")}}
	got := book.check("w", 7, []sweep{{tables: "b", cells: 3}, {tables: "b", cells: 3}})
	if got.status != unverified || got.failed != 0 {
		t.Fatalf("unrecorded seed: %+v", got)
	}
	got = book.check("w", 7, []sweep{{tables: "b", cells: 3}, {tables: "c", cells: 3}})
	if got.status != mismatch || got.failed != 3 {
		t.Fatalf("sweeps that disagree: %+v", got)
	}
}

func TestRecordedDigestsCoverEveryWorkload(t *testing.T) {
	book, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		for _, seed := range []string{"1", "2"} { // default and held-out
			if len(book[s.name][seed]) != 64 {
				t.Errorf("%s seed %s: no recorded digest", s.name, seed)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		benchmarkFile
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(what string, file []boundDef, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, code %d", what, len(file), len(code))
		}
		for i := range file {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, code %s %s", what, i,
					file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, code %s", i, w.Name, specs[i].name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("two values: %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	def := boundDef{Name: "wall_s", Better: "lower", Bound: 0.1}
	base := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10}
	faster := []float64{8, 8.1, 7.9, 8, 8.05, 7.95, 8, 8.1, 7.9, 8}
	slower := []float64{12, 12.1, 11.9, 12, 12.05, 11.95, 12, 12.1, 11.9, 12}
	noisy := []float64{5, 15, 7, 13, 9, 11, 6, 14, 8, 12}
	cases := []struct {
		change []float64
		want   string
	}{
		{faster, "gain"},
		{slower, "regression"},
		{base, "unchanged"},
		{noisy, "unresolved (spread wider than bound)"},
	}
	for _, c := range cases {
		if _, _, got := verdict(def, base, c.change); got != c.want {
			t.Errorf("verdict = %q, want %q", got, c.want)
		}
	}
}

func TestSelfTimeAndUnderuse(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := selfTime(parent, children); got != 60 {
		t.Fatalf("selfTime = %v, want 60", got)
	}
	if got := underused([]interval{{0, 10}, {0, 4}, {12, 14}}, 2); got != 8 {
		t.Fatalf("underused = %v, want 8", got)
	}
}

func TestGoroutineIDs(t *testing.T) {
	self, _ := goroutineIDs()
	done := make(chan uint64)
	go func() {
		_, parent := goroutineIDs()
		done <- parent
	}()
	if parent := <-done; self == 0 || parent != self {
		t.Fatalf("self %d, child's parent %d", self, parent)
	}
}

// TestStampSinkMatchesReplay checks the per-phase counting that the
// replay comparison rests on, with a generator small enough to follow.
func TestStampSinkMatchesReplay(t *testing.T) {
	gen := func(s trace.Sink, refs uint64, seed int64) error {
		base, err := s.Mmap(1 << 20)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if err := s.Ref(trace.Ref{Addr: base}); err != nil {
				return err
			}
		}
		trace.AnnouncePhase(s, trace.MainPhase)
		for i := uint64(0); i < refs; i++ {
			if err := s.Ref(trace.Ref{Addr: base}); err != nil {
				return err
			}
		}
		return nil
	}
	col := newCollector()
	var machine nullSink
	if err := col.wrap("g", gen)(&machine, 5, 1); err != nil {
		t.Fatal(err)
	}
	g := col.gens[0]
	if g.warmRefs != 3 || g.mainRefs != 5 || machine.warm != 3 || machine.main != 5 {
		t.Fatalf("stamped %d+%d, machine saw %d+%d", g.warmRefs, g.mainRefs, machine.warm, machine.main)
	}
	if err := replay(gen, g); err != nil {
		t.Fatal(err)
	}
	if g.replayWarm != 3 || g.replayMain != 5 {
		t.Fatalf("replay %d+%d", g.replayWarm, g.replayMain)
	}
}

// TestTracedRunMatchesEveryCell runs a small traced regeneration with
// functional, cycle-model and SMT cells and checks that every cell's
// generator calls were found and the traced run agrees with the plain one.
func TestTracedRunMatchesEveryCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	s := spec{
		name: "small", suite: []string{"xz"}, refs: 4000,
		figures: []figure{(*tps.Runner).Fig13, (*tps.Runner).Fig14},
	}
	tr := runTraced(s, 1, "")
	if tr.plain.err != nil || tr.obs.err != nil {
		t.Fatal(tr.plain.err, tr.obs.err)
	}
	for _, p := range tr.problems {
		t.Error(p)
	}
	m := tr.metrics
	if m["trace.unaccounted_frac"] != 0 {
		t.Errorf("unaccounted_frac = %v: a cell's generator calls were not matched", m["trace.unaccounted_frac"])
	}
	if m["engine.cells"] != 10 || m["sim.smt_wall_share"] <= 0 || m["sim.smt_main_ns_per_ref"] <= 0 {
		t.Errorf("cells %v, smt share %v, smt ns/ref %v", m["engine.cells"], m["sim.smt_wall_share"], m["sim.smt_main_ns_per_ref"])
	}
	if math.IsNaN(m["cpu.ns_per_ref"]) || m["cpu.ns_per_ref"] == 0 {
		t.Errorf("cpu.ns_per_ref = %v: no cycle-model cell found its functional twin", m["cpu.ns_per_ref"])
	}
}
