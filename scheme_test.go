package tps

// Scheme-selection and store-keying tests at the harness boundary: unknown
// or empty scheme names are explicit errors (never a masqueraded 4K
// baseline), cells are keyed by stable registry name, and entries
// persisted under the retired v1 (ordinal-keyed) and v2 schemas are
// unreachable — they miss and recompute rather than resurrecting into new
// runs.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tps/internal/scheme"
	"tps/internal/store"
)

func TestRunRejectsUnknownScheme(t *testing.T) {
	w := smallSuite(t)[0]
	if _, err := Run(w, Options{Refs: 1000}); err == nil {
		t.Error("Run accepted the empty scheme name; there is no default scheme")
	}
	_, err := Run(w, Options{Scheme: "bogus", Refs: 1000})
	if err == nil {
		t.Fatal("Run accepted an unknown scheme name")
	}
	// The error must teach the vocabulary, not just reject.
	for _, name := range SchemeNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-scheme error %q does not list registered scheme %q", err, name)
		}
	}
}

func TestSchemesByName(t *testing.T) {
	names, err := SchemesByName([]string{"tps", " Svnapot", "BASE4K "})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"tps", "svnapot", "base4k"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("SchemesByName = %v, want canonical %v", names, want)
	}
	if _, err := SchemesByName([]string{"tps", "bogus"}); err == nil {
		t.Error("SchemesByName accepted an unknown name")
	}
}

func TestStoreKeyedBySchemeName(t *testing.T) {
	e := newEngine(FigureConfig{Refs: 1000}.withDefaults())
	fp := e.fingerprint(runKey{name: "gups", scheme: "tps"})
	if !strings.Contains(fp, "scheme=tps") {
		t.Errorf("fingerprint %q does not carry the scheme name", fp)
	}
	if strings.Contains(fp, "setup=") {
		t.Errorf("fingerprint %q still carries an ordinal setup field", fp)
	}
	if !strings.HasPrefix(fp, SimVersion+"|") {
		t.Errorf("fingerprint %q not salted with %s", fp, SimVersion)
	}
	// Distinct schemes, distinct cells.
	if fp2 := e.fingerprint(runKey{name: "gups", scheme: "svnapot"}); fp2 == fp {
		t.Error("tps and svnapot cells share a fingerprint")
	}
}

// TestOrdinalKeysNotReplayed plants sentinel results under the exact keys
// the retired v1 schema (ordinal-keyed, "tps-sim-v1" salt) and v2 schema
// (name-keyed, Result still carrying an ordinal Setup field) would have
// used for a cell, then runs that cell against the same store: no
// sentinel may replay, and the recomputed result must persist under a
// new, distinct key — the store round-trip that proves both key
// migrations recompute instead of resurrecting.
func TestOrdinalKeysNotReplayed(t *testing.T) {
	w := smallSuite(t)[0]
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := FigureConfig{Refs: 20_000, Suite: []Workload{w}, Parallelism: 1, Store: st}
	r := NewRunner(cfg)

	// The retired fingerprint formats, verbatim, for this cell (setup
	// ordinal 2 = TPS under the v1 enum).
	stale := map[string]string{
		"v1": fmt.Sprintf("tps-sim-v1|refs=%d|seed=%d|mem=%d|w=%s|setup=2|smt=false|virt=false|frag=false|cyc=false|thr=0|sizing=0|alias=0|cfail=false|lvl=0|tlbe=0|skew=false|ce=0",
			r.cfg.Refs, r.cfg.Seed, r.cfg.MemoryPages, w.Name),
		"v2": fmt.Sprintf("tps-sim-v2|refs=%d|seed=%d|mem=%d|w=%s|scheme=tps|smt=false|virt=false|frag=false|cyc=false|thr=0|sizing=0|alias=0|cfail=false|lvl=0|tlbe=0|skew=false|ce=0",
			r.cfg.Refs, r.cfg.Seed, r.cfg.MemoryPages, w.Name),
	}
	sentinel := Result{Workload: w.Name, Refs: 12345, L1MPKI: 999.25}
	data, err := encodeResult(sentinel)
	if err != nil {
		t.Fatal(err)
	}
	newKey := r.eng.cellKey(runKey{name: w.Name, scheme: "tps"})
	for schema, fp := range stale {
		oldKey := store.KeyOf(fp)
		if err := st.Put(oldKey, data); err != nil {
			t.Fatal(err)
		}
		if newKey == oldKey {
			t.Fatalf("%s cell key equals the %s key %s; stale entries would replay", SimVersion, schema, oldKey)
		}
	}
	res, err := r.run(w, "tps", runFlags{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Refs == sentinel.Refs && res.L1MPKI == sentinel.L1MPKI {
		t.Fatal("run replayed a stale-schema sentinel")
	}
	if res.Scheme != "tps" {
		t.Errorf("Result.Scheme = %q, want tps", res.Scheme)
	}
	// Sentinel entries plus the freshly persisted cell: distinct keys.
	n, err := st.Count()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(stale) + 1; n != want {
		t.Fatalf("store holds %d entries, want %d (v1 + v2 sentinels + %s cell)", n, want, SimVersion)
	}

	// The current entry round-trips: a fresh Runner over the same store replays
	// the name-keyed cell bit-for-bit.
	replayed, err := NewRunner(cfg).run(w, "tps", runFlags{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, replayed) {
		t.Error("name-keyed cell did not round-trip through the store")
	}
}

func TestSchemeGridWellFormed(t *testing.T) {
	suite := smallSuite(t)
	r := NewRunner(FigureConfig{Refs: 20_000, Suite: suite, Parallelism: 2})
	tbl, err := r.SchemeGrid([]string{"base4k", "tps", "svnapot"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"benchmark", "4K", "TPS", "Svnapot"}; !reflect.DeepEqual(tbl.Header, want) {
		t.Fatalf("grid header %q, want registry labels %q", tbl.Header, want)
	}
	if got, want := len(tbl.Rows), len(suite)+1; got != want {
		t.Fatalf("grid has %d rows, want %d (suite + average)", got, want)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("row %v width %d != header width %d", row, len(row), len(tbl.Header))
		}
		for _, cell := range row[1:] {
			if !strings.Contains(cell, "/") {
				t.Errorf("cell %q not in L1MPKI/walkKI format", cell)
			}
		}
	}
}

// TestCellFingerprintPinned pins the exact store fingerprint of one cell
// per fingerprint-relevant flag. Any drift in the format silently changes
// every store key, so -resume would recompute everything; a deliberate
// format change must bump SimVersion and update these literals together.
func TestCellFingerprintPinned(t *testing.T) {
	e := newEngine(FigureConfig{Refs: 20_000, Seed: 42, MemoryPages: 1 << 22}.withDefaults())
	cases := []struct {
		name string
		k    runKey
		want string
	}{
		{"tps", runKey{name: "gups", scheme: "tps"},
			"tps-sim-v3|refs=20000|seed=42|mem=4194304|w=gups|scheme=tps|smt=false|virt=false|frag=false|cyc=false|thr=0|sizing=0|alias=0|cfail=false|lvl=0|tlbe=0|skew=false|ce=0"},
		{"frag", runKey{name: "mcf", scheme: "thp", frag: true},
			"tps-sim-v3|refs=20000|seed=42|mem=4194304|w=mcf|scheme=thp|smt=false|virt=false|frag=true|cyc=false|thr=0|sizing=0|alias=0|cfail=false|lvl=0|tlbe=0|skew=false|ce=0"},
		{"smt", runKey{name: "gcc", scheme: "tps", smt: true},
			"tps-sim-v3|refs=20000|seed=42|mem=4194304|w=gcc|scheme=tps|smt=true|virt=false|frag=false|cyc=false|thr=0|sizing=0|alias=0|cfail=false|lvl=0|tlbe=0|skew=false|ce=0"},
		{"cyc", runKey{name: "xz", scheme: "base4k", cyc: true},
			"tps-sim-v3|refs=20000|seed=42|mem=4194304|w=xz|scheme=base4k|smt=false|virt=false|frag=false|cyc=true|thr=0|sizing=0|alias=0|cfail=false|lvl=0|tlbe=0|skew=false|ce=0"},
		{"virt", runKey{name: "graph500", scheme: "tps", virt: true, threshold: 0.5},
			"tps-sim-v3|refs=20000|seed=42|mem=4194304|w=graph500|scheme=tps|smt=false|virt=true|frag=false|cyc=false|thr=0.5|sizing=0|alias=0|cfail=false|lvl=0|tlbe=0|skew=false|ce=0"},
	}
	for _, c := range cases {
		if got := e.fingerprint(c.k); got != c.want {
			t.Errorf("%s: fingerprint\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// delegate is a test-only backend: a new registry name and label over an
// existing scheme's policy, organization, orders and attachments — what a
// new package under internal/scheme looks like to the rest of the code.
type delegate struct {
	scheme.Scheme
	name, label string
}

func (d delegate) Name() string  { return d.name }
func (d delegate) Label() string { return d.label }

// TestRegisteredSchemeNeedsNoHarnessEdit: registering a backend is the
// whole job of adding one. A scheme the harness has never heard of runs
// through Run, the scheme grid, and the fleet keys exactly like a
// built-in, under its own name and label.
func TestRegisteredSchemeNeedsNoHarnessEdit(t *testing.T) {
	thp, ok := scheme.Lookup("thp")
	if !ok {
		t.Fatal("thp not registered")
	}
	const name = "test-delegate"
	scheme.Register(delegate{Scheme: thp, name: name, label: "Delegate"})
	t.Cleanup(func() { scheme.Unregister(name) }) // later tests see only the built-ins

	suite := goldenSuite(t)
	res, err := Run(suite[0], Options{Scheme: name, Refs: 6000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != name {
		t.Errorf("Result.Scheme = %q, want %q", res.Scheme, name)
	}

	r := NewRunner(FigureConfig{Refs: 6000, Seed: 42, Suite: suite})
	tbl, err := r.SchemeGrid([]string{"thp", name})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"benchmark", "THP", "Delegate"}; !reflect.DeepEqual(tbl.Header, want) {
		t.Errorf("grid header %q, want %q", tbl.Header, want)
	}
	for _, row := range tbl.Rows {
		if row[1] != row[2] {
			t.Errorf("%s: delegate cell %s differs from its delegate's %s", row[0], row[2], row[1])
		}
	}

	cfg := FigureConfig{Refs: 6000, Suite: suite}
	for _, spec := range FleetCells(cfg, []string{name}) {
		key, err := SpecKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.Scheme = "thp"
		if thpKey, _ := SpecKey(spec); key == thpKey {
			t.Errorf("%s: delegate shares the thp store key", spec.Workload)
		}
	}
}
