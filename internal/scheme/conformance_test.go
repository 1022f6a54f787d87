package scheme_test

// Conformance suite: every registered scheme — present and future — is
// held to the same contract, with no per-scheme test code. A new backend
// only has to Register itself to be covered. The checks:
//
//   - every built-in name carries its paper label, every registered
//     scheme describes itself, and every registered name selects its
//     scheme for a simulated run,
//   - every order in the scheme's encoding domain round-trips through the
//     PTE codec (conventional encoding for the x86-64 orders, NAPOT
//     tailored encoding for everything else),
//   - a simulated run satisfies the TLB probe/insert counter identities
//     and never maps a page outside the scheme's declared order domain,
//   - the steady-state translate path is allocation-free,
//   - runs are deterministic (same options, byte-equal Result).
//
// CI runs exactly this suite with:
//
//	go test -run Conformance ./internal/scheme/...

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"tps/internal/addr"
	"tps/internal/pte"
	"tps/internal/scheme"
	_ "tps/internal/scheme/all"
	"tps/internal/sim"
	"tps/internal/workload"
)

// builtinLabels pins the display label of each built-in scheme: the column
// headers of the paper's figures and of the scheme grid.
var builtinLabels = map[string]string{
	"base4k":    "4K",
	"thp":       "THP",
	"tps":       "TPS",
	"tps-eager": "TPS-eager",
	"colt":      "CoLT",
	"rmm":       "RMM",
	"2m-only":   "2M-only",
	"svnapot":   "Svnapot",
}

func TestConformanceRegistryLabels(t *testing.T) {
	for name, want := range builtinLabels {
		sch, ok := scheme.Lookup(name)
		if !ok {
			t.Errorf("built-in scheme %q is not registered", name)
			continue
		}
		if got := sch.Label(); got != want {
			t.Errorf("%s: Label() = %q, want %q", name, got, want)
		}
	}
}

// TestConformanceRegistryMatchesSetups checks that the registry and the
// simulator's run setup agree: the registry holds every built-in, every
// registered scheme describes itself, and every registered name — in any
// case — selects that scheme for a run, which reports the canonical name.
func TestConformanceRegistryMatchesSetups(t *testing.T) {
	schemes := scheme.All()
	if len(schemes) < len(builtinLabels) {
		t.Fatalf("only %d schemes registered, want at least the %d built-ins",
			len(schemes), len(builtinLabels))
	}
	w := workload.Sparse(16<<20, 0.5)
	for _, sch := range schemes {
		if sch.Description() == "" {
			t.Errorf("%s: empty Description", sch.Name())
		}
		if sch.Label() == "" {
			t.Errorf("%s: empty Label", sch.Name())
		}
		spelling := " " + strings.ToUpper(sch.Name()) + " "
		res, err := sim.Run(w, sim.Options{Scheme: spelling, Refs: 2000, Seed: 7, MemoryPages: 1 << 16})
		if err != nil {
			t.Errorf("%s: run with Scheme %q: %v", sch.Name(), spelling, err)
			continue
		}
		if res.Scheme != sch.Name() {
			t.Errorf("%s: run with Scheme %q reported %q", sch.Name(), spelling, res.Scheme)
		}
	}
}

// conventionalOrders are the orders x86-64 encodes without the T bit; every
// other order a scheme declares must use the NAPOT tailored encoding.
var conventionalOrders = map[addr.Order]bool{0: true, addr.Order2M: true, addr.Order1G: true}

func TestConformancePTERoundTrip(t *testing.T) {
	// Aligned to every representable order, well inside PhysBits.
	pfn := addr.PFN(1) << uint(addr.MaxOrder)
	for _, sch := range scheme.All() {
		t.Run(sch.Name(), func(t *testing.T) {
			orders := sch.Orders()
			if len(orders) == 0 {
				t.Fatal("empty encoding domain")
			}
			if !sort.SliceIsSorted(orders, func(i, j int) bool { return orders[i] < orders[j] }) {
				t.Errorf("Orders() not ascending: %v", orders)
			}
			for _, o := range orders {
				if o < 0 || o > addr.MaxOrder {
					t.Errorf("order %d outside [0,%d]", o, addr.MaxOrder)
					continue
				}
				if conventionalOrders[o] {
					level := int(o) / addr.LevelBits
					e := pte.MakeConventional(pfn, o, pte.FlagWrite)
					if got := e.Order(level); got != o {
						t.Errorf("conventional order %v decoded as %v", o, got)
					}
					if got := e.PFN(level); got != pfn {
						t.Errorf("conventional order %v: PFN %#x decoded as %#x", o, pfn, got)
					}
				}
				if o >= 1 {
					e, err := pte.MakeTailored(pfn, o, pte.FlagWrite)
					if err != nil {
						t.Errorf("MakeTailored(order %v): %v", o, err)
						continue
					}
					if got := e.Order(0); got != o {
						t.Errorf("tailored order %v decoded as %v", o, got)
					}
					if got := e.PFN(0); got != pfn {
						t.Errorf("tailored order %v: PFN %#x decoded as %#x", o, pfn, got)
					}
				}
			}
		})
	}
}

// TestConformanceSimulatedRuns drives each scheme through a real (small)
// simulation and checks the hierarchy counter identities, the census
// domain, and run-to-run determinism.
func TestConformanceSimulatedRuns(t *testing.T) {
	w := workload.Sparse(128<<20, 0.5)
	for _, sch := range scheme.All() {
		t.Run(sch.Name(), func(t *testing.T) {
			opts := sim.Options{
				Scheme:      sch.Name(),
				Refs:        150_000,
				Seed:        7,
				MemoryPages: 1 << 19, // 2 GB
			}
			res, err := sim.Run(w, opts)
			if err != nil {
				t.Fatal(err)
			}

			// Probe/insert identities: every access settles at exactly one
			// level of the hierarchy.
			m := res.MMU
			if m.Accesses == 0 {
				t.Fatal("run recorded no TLB accesses")
			}
			if m.Accesses != m.L1Hits+m.L1Misses {
				t.Errorf("accesses %d != L1 hits %d + misses %d", m.Accesses, m.L1Hits, m.L1Misses)
			}
			if m.L1Misses != m.STLBHits+m.STLBMisses {
				t.Errorf("L1 misses %d != STLB hits %d + misses %d", m.L1Misses, m.STLBHits, m.STLBMisses)
			}
			if m.STLBMisses != m.SidecarHits+m.Walks {
				t.Errorf("STLB misses %d != sidecar hits %d + walks %d", m.STLBMisses, m.SidecarHits, m.Walks)
			}

			// The kernel must never map a page outside the scheme's
			// declared encoding domain.
			allowed := map[addr.Order]bool{}
			for _, o := range sch.Orders() {
				allowed[o] = true
			}
			for o, n := range res.Census {
				if n > 0 && !allowed[o] {
					t.Errorf("census has %d order-%v pages outside encoding domain %v", n, o, sch.Orders())
				}
			}
			if res.Scheme != sch.Name() {
				t.Errorf("Result.Scheme = %q, want %q", res.Scheme, sch.Name())
			}

			again, err := sim.Run(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, again) {
				t.Errorf("two identical runs diverged:\n%+v\nvs\n%+v", res, again)
			}
		})
	}
}

// TestConformanceZeroAllocTranslate: the steady-state translate path —
// where every cell spends its life — must not allocate, for any scheme,
// on every hot-path variant: the default (translation cache in front of
// the modeled hierarchy) and the cache disabled.
func TestConformanceZeroAllocTranslate(t *testing.T) {
	if testing.Short() {
		t.Skip("faults in a 64MB footprint per scheme and variant")
	}
	variants := []struct {
		name string
		opts sim.Options
	}{
		{"default", sim.Options{}},
		{"cache-disabled", sim.Options{TransCache: -1}},
	}
	for _, sch := range scheme.All() {
		for _, v := range variants {
			t.Run(sch.Name()+"/"+v.name, func(t *testing.T) {
				opts := v.opts
				opts.Scheme = sch.Name()
				ss, err := sim.NewSteadyState(opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := ss.Step(); err != nil { // settle any first-batch laziness
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(100, func() {
					if err := ss.Step(); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Fatalf("steady-state batch allocates %.2f times, want 0", allocs)
				}
				if s := ss.MMUStats(); s.Accesses == 0 {
					t.Error("steady-state harness drove no translations")
				}
			})
		}
	}
}
