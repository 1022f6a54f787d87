// Quickstart: simulate one workload under Tailored Page Sizes and print
// the headline numbers — the shortest path through the public API.
package main

import (
	"fmt"
	"log"

	"tps"
)

func main() {
	// Pick a benchmark from the paper's suite.
	w, ok := tps.WorkloadByName("xsbench")
	if !ok {
		log.Fatal("workload not found")
	}

	// Run it twice: once over the reservation-based THP baseline, once
	// with TPS. Refs counts measured (post-warmup) references.
	baseline, err := tps.Run(w, tps.Options{Scheme: "thp", Refs: 300_000})
	if err != nil {
		log.Fatal(err)
	}
	tailored, err := tps.Run(w, tps.Options{Scheme: "tps", Refs: 300_000})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("benchmark: %s (footprint %d MB)\n\n", w.Name, w.FootprintBytes>>20)
	fmt.Printf("%-28s %15s %15s\n", "", "THP baseline", "TPS")
	fmt.Printf("%-28s %15d %15d\n", "L1 DTLB misses", baseline.MMU.L1Misses, tailored.MMU.L1Misses)
	fmt.Printf("%-28s %15d %15d\n", "page-walk memory refs", baseline.WalkMemRefs, tailored.WalkMemRefs)
	fmt.Printf("%-28s %15d %15d\n", "pages mapping the heap", count(baseline), count(tailored))

	elim := 100 * (1 - float64(tailored.MMU.L1Misses)/float64(baseline.MMU.L1Misses))
	fmt.Printf("\nTPS eliminated %.1f%% of L1 TLB misses.\n", elim)
}

func count(r tps.Result) (n uint64) {
	for _, c := range r.Census {
		n += c
	}
	return
}
