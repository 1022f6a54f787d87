// Promotion-threshold walk-through: the §III-B1 tradeoff between memory
// footprint and TLB reach. At a 100% utilization threshold TPS's footprint
// is identical to 4 KB-only paging; lowering the threshold maps untouched
// neighbour pages early, buying fewer/larger pages (better TLB reach) at
// the cost of footprint bloat.
package main

import (
	"fmt"
	"log"

	"tps"
)

func main() {
	// A workload touching only ~60% of its 1 GB heap, scattered: the
	// pattern where promotion aggressiveness matters.
	w := tps.SparseWorkload(1<<30, 0.6)

	// The 4K-only run establishes the true touched footprint.
	base, err := tps.Run(w, tps.Options{Scheme: "base4k", Refs: 250_000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("touched 4K pages: %d of %d\n\n", base.DemandPages, uint64(1<<30)/4096)

	fmt.Printf("%-10s %14s %9s %12s\n", "threshold", "mapped pages", "bloat", "L1 misses")
	for _, th := range []float64{1.0, 0.9, 0.75, 0.5} {
		res, err := tps.Run(w, tps.Options{
			Scheme:             "tps",
			Refs:               250_000,
			PromotionThreshold: th,
		})
		if err != nil {
			log.Fatal(err)
		}
		bloat := 100 * (float64(res.MappedPages)/float64(base.DemandPages) - 1)
		fmt.Printf("%-10.2f %14d %8.2f%% %12d\n",
			th, res.MappedPages, bloat, res.MMU.L1Misses)
	}
	fmt.Println("\nAt threshold 1.0 the footprint matches 4 KB-only paging exactly")
	fmt.Println("(the paper's default for all experiments); lower thresholds trade")
	fmt.Println("footprint for fewer, larger pages and so fewer TLB misses.")
}
