package main

import (
	"fmt"

	"tps"
	"tps/internal/trace"
)

// figure is one table-producing call on a Runner.
type figure func(r *tps.Runner) (*tps.Table, error)

// spec is one benchmark workload: a figure regeneration a user waits for,
// sized so that a sweep takes a few seconds on a 2-core host.
type spec struct {
	name    string
	suite   []string // evaluation workloads, by figure name
	refs    uint64   // measured (post-warm-up) references per cell
	figures []figure // in rendering order
}

// schemeGrid runs every registered scheme, identified only by registry
// name, against the Runner's suite.
func schemeGrid(r *tps.Runner) (*tps.Table, error) {
	schemes, err := tps.SchemesByName(tps.SchemeNames())
	if err != nil {
		return nil, err
	}
	return r.SchemeGrid(schemes)
}

// specs lists the workloads in BENCHMARK.json order. Each stresses a
// different layer; figbench/DESIGN.md records which and why.
var specs = []spec{
	{
		// Nearly every simulated reference is a warm-up page touch: the
		// fault and promotion path does the work.
		name:    "fault-sweep",
		suite:   []string{"gups", "mcf"},
		refs:    20000,
		figures: []figure{schemeGrid},
	},
	{
		// A long measured phase: translation and the generators do the
		// work. gcc misses the translation cache, xz hits it.
		name:    "steady-sweep",
		suite:   []string{"gcc", "xz"},
		refs:    2000000,
		figures: []figure{schemeGrid},
	},
	{
		// The cycle model and the SMT scheduler do the work; Fig 13 gives
		// every Fig 14 SMT cell a non-SMT twin.
		name:  "timing-smt",
		suite: []string{"gcc", "xz"},
		refs:  250000,
		figures: []figure{
			(*tps.Runner).Fig12, (*tps.Runner).Fig13, (*tps.Runner).Fig14,
		},
	},
	{
		// The fault path again, but allocating from the churned buddy
		// that fragstate builds.
		name:    "fragmented",
		suite:   []string{"gups", "graph500"},
		refs:    20000,
		figures: []figure{(*tps.Runner).Fig15, (*tps.Runner).Fig16},
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// runFunc is the signature of tps.Workload.Run.
type runFunc = func(s trace.Sink, refs uint64, seed int64) error

// suiteWith resolves the spec's workload names. wrap, when non-nil, replaces
// each generator's Run with an observing wrapper around it; names and
// footprints stay as they are, so the rendered tables are unchanged.
func (s spec) suiteWith(wrap func(name string, run runFunc) runFunc) ([]tps.Workload, error) {
	out := make([]tps.Workload, 0, len(s.suite))
	for _, n := range s.suite {
		w, ok := tps.WorkloadByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown suite workload %q", n)
		}
		if wrap != nil {
			w.Run = wrap(w.Name, w.Run)
		}
		out = append(out, w)
	}
	return out, nil
}
