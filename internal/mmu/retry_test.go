package mmu

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"tps/internal/addr"
	"tps/internal/pagetable"
	"tps/internal/pte"
)

// TestRetryMatchesTranslate drives one first-touch stream through two
// MMUs over identical page tables. After each demand fault one retries
// with Retry, the other with Translate, the retry Retry replaces; every
// result, counter and bit of hardware state must agree. The stream sweeps
// pages in order (the sequential-probe shortcut) and revisits earlier
// ones and, now and then, the page after the one it is about to fault; it
// maps some pages as 64-page blocks ahead of the sweep, grows swept blocks
// in place without a shootdown (stale 4 KB entries stay resident, as after
// a promotion), translates or shoots pages down between a fault and its
// retry, and stores to read-only pages.
func TestRetryMatchesTranslate(t *testing.T) {
	skewed := DefaultConfig(OrgTPS)
	skewed.TPSTLBSkewed = true
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"conventional", DefaultConfig(OrgConventional)},
		{"tps", DefaultConfig(OrgTPS)},
		{"tps-skewed", skewed},
		{"colt", DefaultConfig(OrgCoLT)},
	} {
		t.Run(c.name, func(t *testing.T) {
			pts := [2]*pagetable.Table{
				pagetable.New(addr.Levels4, pagetable.ExtraLookup),
				pagetable.New(addr.Levels4, pagetable.ExtraLookup),
			}
			mmus := [2]*MMU{New(c.cfg, pts[0], nil, nil), New(c.cfg, pts[1], nil, nil)}
			both := func(f func(m *MMU, pt *pagetable.Table)) {
				for i := range mmus {
					f(mmus[i], pts[i])
				}
			}
			const base = addr.Virt(1 << 30)
			page := func(i int) addr.Virt { return base + addr.Virt(i)*addr.BasePageSize }
			mapAt := func(i int, o addr.Order, flags uint64) {
				both(func(_ *MMU, pt *pagetable.Table) {
					if err := pt.Map(page(i), addr.PFN(0x100000+i), o, flags); err != nil {
						t.Fatal(err)
					}
				})
			}
			access := func(i int, write bool, between func(m *MMU)) {
				var res [2]Result
				var errs [2]error
				for k, m := range mmus {
					res[k], errs[k] = m.Translate(page(i), write)
				}
				if errs[0] != errs[1] || res[0] != res[1] {
					t.Fatalf("page %d: probe %+v %v vs %+v %v", i, res[0], errs[0], res[1], errs[1])
				}
				if !errors.Is(errs[0], pagetable.ErrNotMapped) {
					return
				}
				mapAt(i, 0, pte.FlagWrite)
				if between != nil {
					both(func(m *MMU, _ *pagetable.Table) { between(m) })
				}
				res[0], errs[0] = mmus[0].Retry(page(i), write)
				res[1], errs[1] = mmus[1].Translate(page(i), write)
				if errs[0] != errs[1] || res[0] != res[1] {
					t.Fatalf("page %d: Retry %+v %v, Translate %+v %v", i, res[0], errs[0], res[1], errs[1])
				}
			}

			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 4096; i++ {
				switch {
				case i%512 == 128:
					mapAt(i, 6, pte.FlagWrite) // ahead of the sweep
				case i%512 > 128 && i%512 < 192:
					// inside that block: already mapped
				case i%700 == 699:
					// Grow a swept block of 4 KB pages to one 64-page
					// page in place.
					b := (i - 300) &^ 63
					both(func(_ *MMU, pt *pagetable.Table) {
						for p := b; p < b+64; p++ {
							if _, _, _, err := pt.Unmap(page(p)); err != nil {
								t.Fatal(err)
							}
						}
					})
					mapAt(b, 6, pte.FlagWrite)
				case i%300 == 7:
					mapAt(i, 0, 0) // read-only: the store faults
					access(i, true, nil)
					continue
				}
				var between func(m *MMU)
				switch i % 97 {
				case 3:
					between = func(m *MMU) { m.ShootdownPage(page(i - 1).PageNumber()) }
				case 50:
					// A translation between fault and retry caches the
					// page: the retry's lookups no longer all miss.
					between = func(m *MMU) {
						if _, err := m.Translate(page(i), false); err != nil {
							t.Fatal(err)
						}
					}
				}
				if i%50 == 20 {
					// Touch the next page first: when the sweep reaches it
					// right after retrying this one, it is cached.
					access(i+1, false, nil)
				}
				access(i, i%5 != 0, between)
				if i > 0 && rng.Intn(4) == 0 {
					access(rng.Intn(i), rng.Intn(2) == 0, nil)
				}
			}
			if a, b := mmus[0].Stats(), mmus[1].Stats(); a != b {
				t.Fatalf("stats: Retry %+v, Translate %+v", a, b)
			}
			var states [2]strings.Builder
			for k, m := range mmus {
				m.hw.WriteState(&states[k])
			}
			if states[0].String() != states[1].String() {
				t.Fatal("hardware state differs between Retry and Translate")
			}
		})
	}
}
