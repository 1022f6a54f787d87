package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0: per-layer, no bound
}

// quartiles matches Python's statistics.quantiles(values, n=4) with its
// default exclusive method. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	return ratio(q3-q1, math.Abs(q2))
}

// verdict classifies one metric on one workload by a paired-run rule for
// a small, noisy host: a gain needs the change to win nine tenths of the
// pairs and its median to move by more than the base's own spread; a
// metric whose spread exceeds its bound is unresolved unless every change
// run beats every base run.
func verdict(def boundDef, base, change []float64) (won, pairs int, v string) {
	better := func(a, b float64) bool { // a better than b
		if def.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs = min(len(base), len(change))
	ties := 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(change[i], base[i]):
			won++
		case change[i] == base[i]:
			ties++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	_, cmed, _ := quartiles(change)
	dominates := true
	for _, c := range change {
		for _, b := range base {
			if !better(c, b) {
				dominates = false
			}
		}
	}
	worse := (cmed - bmed) / math.Abs(bmed)
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case def.Bound > 0 && math.Max(spread(base), spread(change)) > def.Bound && !dominates:
		return won, pairs, "unresolved (spread wider than bound)"
	case ties == pairs:
		return won, pairs, "unchanged"
	case float64(won) >= 0.9*float64(pairs) && math.Abs(cmed-bmed) > bq3-bq1:
		return won, pairs, "gain"
	case def.Bound > 0 && worse > def.Bound:
		return won, pairs, "regression"
	case def.Bound > 0:
		return won, pairs, "within bound"
	default:
		return won, pairs, "no claim"
	}
}

// readLog reads a compare input: one logRecord per line.
func readLog(path string) ([]logRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []logRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		var rec logRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// compare prints, per workload and metric, each side's median and
// quartiles, the share of pairs the change won and a verdict. Runs pair
// up in file order within a workload and trace setting.
func compare(benchPath, basePath, changePath string, w io.Writer) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	base, err := readLog(basePath)
	if err != nil {
		return err
	}
	change, err := readLog(changePath)
	if err != nil {
		return err
	}
	type group struct {
		workload string
		trace    int
	}
	series := func(recs []logRecord, g group, name string) []float64 {
		var out []float64
		for _, r := range recs {
			if r.Workload == g.workload && r.Trace == g.trace {
				if m, ok := r.Result.Metrics[name]; ok {
					out = append(out, m.Value)
				}
			}
		}
		return out
	}
	var groups []group
	seen := map[group]bool{}
	for _, r := range base {
		g := group{r.Workload, r.Trace}
		if !seen[g] {
			seen[g] = true
			groups = append(groups, g)
		}
	}
	for _, g := range groups {
		defs := bf.EndToEnd
		if g.trace == 1 {
			defs = bf.PerLayer
		}
		fmt.Fprintf(w, "workload %s (trace %d)\n", g.workload, g.trace)
		fmt.Fprintf(w, "  %-28s %-40s %-40s %-7s %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "won", "verdict")
		for _, def := range defs {
			b, c := series(base, g, def.Name), series(change, g, def.Name)
			if len(b) < 2 || len(c) < 2 {
				fmt.Fprintf(w, "  %-28s fewer than two runs on a side\n", def.Name)
				continue
			}
			won, pairs, v := verdict(def, b, c)
			fmt.Fprintf(w, "  %-28s %-40s %-40s %-7s %s\n", def.Name, stats(b), stats(c),
				fmt.Sprintf("%d/%d", won, pairs), v)
		}
	}
	return nil
}

func stats(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", med, q1, q3)
}
