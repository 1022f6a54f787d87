package main

import (
	"fmt"
	"sort"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a plain run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"ok_frac", "ratio"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order. A
// metric a workload has no cells for reads 0.
var perLayer = []metricDef{
	{"vmm.ns_per_fault", "ns/fault"},
	{"vmm.faults", "count"},
	{"vmm.promotions", "count"},
	{"vmm.fallback_blocks", "count"},
	{"vmm.pte_writes", "count"},
	{"fragstate.churn_s", "s"},
	{"sim.assembly_s", "s"},
	{"sim.warmup_s", "s"},
	{"sim.main_s", "s"},
	{"sim.main_ns_per_ref", "ns/ref"},
	{"sim.smt_main_ns_per_ref", "ns/ref"},
	{"sim.collect_s", "s"},
	{"sim.warmup_share", "ratio"},
	{"sim.main_share", "ratio"},
	{"sim.smt_wall_share", "ratio"},
	{"mmu.accesses", "count"},
	{"mmu.l1_misses", "count"},
	{"mmu.stlb_misses", "count"},
	{"mmu.walks", "count"},
	{"mmu.walk_refs", "count"},
	{"mmu.tc_serve_ratio", "ratio"},
	{"cpu.ns_per_ref", "ns/ref"},
	{"workload.warmup_ns_per_ref", "ns/ref"},
	{"workload.main_ns_per_ref", "ns/ref"},
	{"engine.cells", "count"},
	{"engine.queue_wait_s", "s"},
	{"engine.busy_frac", "ratio"},
	{"engine.tail_s", "s"},
	{"engine.cell_s.p50", "s"},
	{"engine.cell_s.max", "s"},
	{"engine.dedup_joins", "count"},
	{"process.peak_rss_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unaccounted_frac", "ratio"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer split from the matched cells.
// plainWall and tracedWall are the two sweeps' wall times.
func layerMetrics(views []*cellView, col *collector, churn, plainWall, tracedWall time.Duration) map[string]float64 {
	m := map[string]float64{}
	var (
		cellWall, warmSpan, mainSpan, smtWall, unaccounted time.Duration
		assembly, warmSelf, collect, queueWait             time.Duration
		mainSelf, smtMainSelf                              time.Duration
		mainRefs, smtMainRefs, faults                      uint64
		genWarm, genMain                                   time.Duration
		genWarmRefs, genMainRefs                           uint64
		cyc                                                []float64
		durs                                               []float64
		busy                                               []interval
	)
	ns := func(t time.Time) int64 { return t.UnixNano() }
	for _, v := range views {
		d := v.finished.Sub(v.started)
		cellWall += d
		durs = append(durs, d.Seconds())
		queueWait += v.started.Sub(v.queued)
		busy = append(busy, interval{ns(v.started), ns(v.finished)})
		sp := cellSpans(v, ns)
		unaccounted += selfTime(sp[1], sp[2:])
		if v.smt() {
			smtWall += d
		}
		if len(v.gens) == 0 {
			continue
		}
		assembly += v.first.Sub(v.started)
		warmSpan += v.main.Sub(v.first)
		mainSpan += v.ret.Sub(v.main)
		collect += v.finished.Sub(v.ret)
		warmSelf += v.warmSelf()
		if v.smt() {
			smtMainSelf += v.mainSelf()
			smtMainRefs += v.mainRefs
		} else {
			mainSelf += v.mainSelf()
			mainRefs += v.mainRefs
		}
		if v.res != nil {
			faults += v.res.OS.Faults
		}
		for _, g := range v.gens {
			genWarm += g.genWarm
			genMain += g.genMain
			genWarmRefs += g.warmRefs
			genMainRefs += g.mainRefs
		}
	}
	// cpu.ns_per_ref: each cycle-model cell against its functional twin
	// (same workload, scheme and SMT-ness, no cycle model).
	for _, v := range views {
		if v.res == nil || v.res.CyclesReal == 0 || v.mainRefs == 0 {
			continue
		}
		for _, t := range views {
			if t.res != nil && t.res.CyclesReal == 0 && t.workload == v.workload &&
				t.scheme == v.scheme && t.smt() == v.smt() && t.mainRefs > 0 {
				cyc = append(cyc, nsPer(v.mainSelf(), v.mainRefs)-nsPer(t.mainSelf(), t.mainRefs))
				break
			}
		}
	}

	for _, v := range views {
		if r := v.res; r != nil {
			m["vmm.faults"] += float64(r.OS.Faults)
			m["vmm.promotions"] += float64(r.OS.Promotions)
			m["vmm.fallback_blocks"] += float64(r.OS.FallbackBlocks)
			m["vmm.pte_writes"] += float64(r.PTEWrites)
			m["mmu.accesses"] += float64(r.MMU.Accesses)
			m["mmu.l1_misses"] += float64(r.MMU.L1Misses)
			m["mmu.stlb_misses"] += float64(r.MMU.STLBMisses)
			m["mmu.walks"] += float64(r.MMU.Walks)
			m["mmu.walk_refs"] += float64(r.MMU.WalkRefs)
		}
	}
	m["vmm.ns_per_fault"] = nsPer(warmSelf, faults)
	m["fragstate.churn_s"] = churn.Seconds()
	m["sim.assembly_s"] = assembly.Seconds()
	m["sim.warmup_s"] = warmSelf.Seconds()
	m["sim.main_s"] = mainSelf.Seconds()
	m["sim.main_ns_per_ref"] = nsPer(mainSelf, mainRefs)
	m["sim.smt_main_ns_per_ref"] = nsPer(smtMainSelf, smtMainRefs)
	m["sim.collect_s"] = collect.Seconds()
	// The phase shares are of the time cells spend streaming references;
	// assembly (fragstate churn included) is sim.assembly_s.
	m["sim.warmup_share"] = ratio(warmSpan.Seconds(), (warmSpan + mainSpan).Seconds())
	m["sim.main_share"] = ratio(mainSpan.Seconds(), (warmSpan + mainSpan).Seconds())
	m["sim.smt_wall_share"] = ratio(smtWall.Seconds(), cellWall.Seconds())
	m["mmu.tc_serve_ratio"] = ratio(float64(col.serves), float64(col.access))
	m["cpu.ns_per_ref"] = mean(cyc)
	m["workload.warmup_ns_per_ref"] = nsPer(genWarm, genWarmRefs)
	m["workload.main_ns_per_ref"] = nsPer(genMain, genMainRefs)
	m["engine.cells"] = float64(len(views))
	m["engine.queue_wait_s"] = queueWait.Seconds()
	m["engine.busy_frac"] = ratio(cellWall.Seconds(), tracedWall.Seconds()*workers)
	m["engine.tail_s"] = underused(busy, workers).Seconds()
	m["engine.cell_s.p50"] = median(durs)
	m["engine.cell_s.max"] = maxOf(durs)
	m["engine.dedup_joins"] = float64(col.dedup)
	m["trace.overhead_frac"] = ratio(tracedWall.Seconds(), plainWall.Seconds()) - 1
	m["trace.unaccounted_frac"] = ratio(unaccounted.Seconds(), cellWall.Seconds())
	return m
}

func nsPer(d time.Duration, n uint64) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// premises checks that a workload stresses the layer it was chosen for.
// The thresholds are the benchmark's design claims, not output checks: a
// broken premise is reported, and the run's tables may still be correct.
func premises(workload string, m map[string]float64) []string {
	type claim struct {
		metric string
		min    float64
		what   string
	}
	claims := map[string][]claim{
		"fault-sweep":  {{"sim.warmup_share", 0.80, "warm-up share of streaming time"}},
		"fragmented":   {{"sim.warmup_share", 0.80, "warm-up share of streaming time"}},
		"steady-sweep": {{"sim.main_share", 0.75, "measured-phase share of streaming time"}},
		"timing-smt":   {{"sim.smt_wall_share", 0.50, "SMT cells' share of cell time"}},
	}
	var out []string
	for _, c := range claims[workload] {
		verdict := "holds"
		if m[c.metric] < c.min {
			verdict = "DOES NOT HOLD"
		}
		out = append(out, fmt.Sprintf("premise %s: %s = %.3f (want >= %.2f) %s",
			workload, c.what, m[c.metric], c.min, verdict))
	}
	return out
}
