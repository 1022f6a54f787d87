// GUPS: the paper's stress case for TLB reach (§IV-B). Random updates over
// a 4 GB table have no spatial locality, so growing each TLB entry's reach
// by a small factor (CoLT) barely helps, an L2-level range TLB (RMM) fixes
// walks but not L1 misses, and only a page tailored to the whole table
// collapses the working set into a few TLB entries.
package main

import (
	"fmt"
	"log"

	"tps"
)

func main() {
	w, ok := tps.WorkloadByName("gups")
	if !ok {
		log.Fatal("gups not found")
	}

	schemes := []string{"thp", "colt", "rmm", "tps"}
	fmt.Printf("%-10s %14s %14s %12s\n", "mechanism", "L1 misses", "walk refs", "miss rate")

	var baseline tps.Result
	for i, s := range schemes {
		res, err := tps.Run(w, tps.Options{Scheme: s, Refs: 400_000})
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			baseline = res
		}
		fmt.Printf("%-10s %14d %14d %11.2f%%\n",
			s, res.MMU.L1Misses, res.WalkMemRefs, 100*res.MMU.L1MissRatePerAccess())
		if i > 0 {
			fmt.Printf("%-10s   vs THP: %5.1f%% of L1 misses eliminated, %5.1f%% of walk refs\n", "",
				100*elim(baseline.MMU.L1Misses, res.MMU.L1Misses),
				100*elim(baseline.WalkMemRefs, res.WalkMemRefs))
		}
	}
}

func elim(base, mech uint64) float64 {
	if base == 0 {
		return 0
	}
	e := 1 - float64(mech)/float64(base)
	if e < 0 {
		return 0
	}
	return e
}
