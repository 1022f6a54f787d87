// Graph500 under memory fragmentation: the §IV-B fragmented-server study
// in miniature. On a fresh machine TPS maps the graph with a few huge
// tailored pages; on a heavily fragmented machine the buddy allocator
// cannot supply huge blocks, yet TPS still harvests the *intermediate*
// contiguity that conventional page sizes cannot use at all.
package main

import (
	"fmt"
	"log"

	"tps"
	"tps/internal/addr"
	"tps/internal/fragstate"
)

func main() {
	w, ok := tps.WorkloadByName("graph500")
	if !ok {
		log.Fatal("graph500 not found")
	}

	for _, fragmented := range []bool{false, true} {
		label := "lightly loaded memory"
		// 16 GB of physical memory: the fragmented case pins ~65% of it
		// as the resident server load.
		opts := tps.Options{Refs: 300_000, MemoryPages: 1 << 22}
		if fragmented {
			label = "heavily fragmented memory"
			opts.PreFragment = fragstate.PreFragment(fragstate.DefaultParams())
		}
		fmt.Printf("--- %s ---\n", label)

		opts.Scheme = "thp"
		thp, err := tps.Run(w, opts)
		if err != nil {
			log.Fatal(err)
		}
		opts.Scheme = "tps"
		res, err := tps.Run(w, opts)
		if err != nil {
			log.Fatal(err)
		}

		e := 100 * (1 - float64(res.MMU.L1Misses)/float64(thp.MMU.L1Misses))
		if e < 0 {
			e = 0
		}
		fmt.Printf("TPS eliminated %.1f%% of L1 TLB misses (THP %d -> TPS %d)\n",
			e, thp.MMU.L1Misses, res.MMU.L1Misses)
		fmt.Printf("fallback blocks (smaller than desired): %d\n", res.OS.FallbackBlocks)
		fmt.Println("TPS page-size census:")
		for o := addr.Order(0); o <= addr.Order1G; o++ {
			if n := res.Census[o]; n > 0 {
				fmt.Printf("  %-5s %d\n", o, n)
			}
		}
		fmt.Println()
	}
}
