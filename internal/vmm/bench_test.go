package vmm

import (
	"testing"

	"tps/internal/addr"
	"tps/internal/buddy"
)

// cellPages is the physical memory of each simulated machine (16 GB).
const cellPages = 1 << 22

// BenchmarkFault measures the OS side of one demand fault — reservation
// lookup, frame choice, PTE install and the promotion cascade — while
// touching a 256 MB region page by page, as a workload's warm-up does.
// The region is replaced with the timer stopped when it is used up.
func BenchmarkFault(b *testing.B) {
	const regionPages = 1 << 16
	for _, p := range []Policy{PolicyBase4K, PolicyTHP, PolicyTPS} {
		b.Run(p.String(), func(b *testing.B) {
			k := New(DefaultConfig(p), buddy.New(cellPages))
			var base addr.Virt
			for i := 0; i < b.N; i++ {
				page := i % regionPages
				if page == 0 {
					b.StopTimer()
					if base != 0 {
						if err := k.Munmap(base); err != nil {
							b.Fatal(err)
						}
					}
					var err error
					if base, err = k.Mmap(regionPages*addr.BasePageSize, 0); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := k.Fault(base+addr.Virt(page)*addr.BasePageSize, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPromotion measures ns per TPS promotion. Every even page of a
// 256 MB region is faulted in with the timer stopped; each timed op then
// faults the next odd page, which completes at least the aligned pair
// around it, so every op promotes (the 4-, 8-, ... page blocks it also
// completes cascade inside the same op). The untimed half-population
// completes no block, so promotions/op counts only timed promotions and
// ns/op can be read per promotion.
func BenchmarkPromotion(b *testing.B) {
	const regionPages = 1 << 16
	k := New(DefaultConfig(PolicyTPS), buddy.New(cellPages))
	var base addr.Virt
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		odd := i % (regionPages / 2)
		if odd == 0 {
			b.StopTimer()
			if base != 0 {
				if err := k.Munmap(base); err != nil {
					b.Fatal(err)
				}
			}
			var err error
			if base, err = k.Mmap(regionPages*addr.BasePageSize, 0); err != nil {
				b.Fatal(err)
			}
			for page := 0; page < regionPages; page += 2 {
				if err := k.Fault(base+addr.Virt(page)*addr.BasePageSize, true); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		if err := k.Fault(base+addr.Virt(2*odd+1)*addr.BasePageSize, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(k.Stats().Promotions)/float64(b.N), "promotions/op")
}

// BenchmarkEagerMmap measures what an eagerly mapped cell pays before its
// first reference: a fresh 16 GB allocator, a kernel, and one 4 GB Mmap.
// THP only reserves; 2M-only and TPS-eager also install every page.
func BenchmarkEagerMmap(b *testing.B) {
	for _, p := range []Policy{Policy2MOnly, PolicyTPSEager, PolicyTHP} {
		b.Run(p.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := New(DefaultConfig(p), buddy.New(cellPages))
				if _, err := k.Mmap(4<<30, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestFaultAllocFree: once a TPS reservation holds pages, a demand fault
// into it — base-page install plus every promotion it triggers — must
// not allocate.
func TestFaultAllocFree(t *testing.T) {
	const pages = 1 << 10
	k := New(DefaultConfig(PolicyTPS), buddy.New(1<<16))
	base, err := k.Mmap(pages*addr.BasePageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The first fault allocates the reservation's mapped-order array.
	if err := k.Fault(base, true); err != nil {
		t.Fatal(err)
	}
	next := 1
	allocs := testing.AllocsPerRun(pages-2, func() {
		if err := k.Fault(base+addr.Virt(next)*addr.BasePageSize, true); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("demand fault allocates %.2f times", allocs)
	}
	if promos := k.Stats().Promotions; promos != pages-1 {
		t.Errorf("promotions=%d, want %d (every aligned pair, quad, ... up to the 4 MB chunk)", promos, pages-1)
	}
}
