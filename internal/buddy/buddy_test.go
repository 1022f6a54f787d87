package buddy

import (
	"math/rand"
	"testing"

	"tps/internal/addr"
)

func TestNewSeedsLargestBlocks(t *testing.T) {
	// 1M base pages = 4 GB: 4 x 1GB blocks.
	a := New(1 << 20)
	if a.FreePages() != 1<<20 {
		t.Fatalf("free=%d", a.FreePages())
	}
	if got := a.FreeBlockCount(addr.Order1G); got != 4 {
		t.Errorf("1G blocks=%d, want 4", got)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewOddSize(t *testing.T) {
	// 7 pages: blocks of 4+2+1.
	a := New(7)
	if a.FreeBlockCount(2) != 1 || a.FreeBlockCount(1) != 1 || a.FreeBlockCount(0) != 1 {
		t.Errorf("snapshot=%v", a.Snapshot())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocSplitsAndFreeMerges(t *testing.T) {
	a := New(16) // one order-4 block
	pfn, err := a.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if pfn != 0 {
		t.Errorf("first alloc at %#x, want 0 (lowest-address policy)", pfn)
	}
	// Splitting order 4 -> 0 creates one free block at each order 0..3.
	for o := addr.Order(0); o <= 3; o++ {
		if got := a.FreeBlockCount(o); got != 1 {
			t.Errorf("order %d free blocks=%d, want 1", o, got)
		}
	}
	if a.Stats().Splits != 4 {
		t.Errorf("splits=%d, want 4", a.Stats().Splits)
	}
	if err := a.Free(pfn); err != nil {
		t.Fatal(err)
	}
	// Everything must merge back into the single order-4 block.
	if got := a.FreeBlockCount(4); got != 1 {
		t.Errorf("after free, order-4 blocks=%d, want 1", got)
	}
	if a.Stats().Merges != 4 {
		t.Errorf("merges=%d, want 4", a.Stats().Merges)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocDeterministicLowestFirst(t *testing.T) {
	a := New(64)
	var prev addr.PFN
	for i := 0; i < 16; i++ {
		pfn, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && pfn <= prev {
			t.Fatalf("allocation order not ascending: %#x after %#x", pfn, prev)
		}
		prev = pfn
	}
}

func TestAllocExhaustion(t *testing.T) {
	a := New(4)
	if _, err := a.Alloc(2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(0); err == nil {
		t.Fatal("expected exhaustion")
	}
	if a.Stats().Failures != 1 {
		t.Errorf("failures=%d", a.Stats().Failures)
	}
}

func TestFreeUnowned(t *testing.T) {
	a := New(16)
	if err := a.Free(3); err == nil {
		t.Fatal("free of unowned block should error")
	}
	pfn, _ := a.Alloc(1)
	if err := a.Free(pfn); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(pfn); err == nil {
		t.Fatal("double free should error")
	}
}

func TestAllocAlignment(t *testing.T) {
	a := New(1 << 12)
	for _, o := range []addr.Order{0, 1, 3, 5, 9} {
		pfn, err := a.Alloc(o)
		if err != nil {
			t.Fatal(err)
		}
		if !pfn.Aligned(o) {
			t.Errorf("order %d block at %#x misaligned", o, pfn)
		}
	}
}

func TestAllocLargest(t *testing.T) {
	a := New(8) // order-3 block
	p1, _ := a.Alloc(0)
	_ = p1
	// Remaining free: order 0 (1), order 1 (2..3), order 2 (4..7).
	pfn, got, err := a.AllocLargest(9)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 || pfn != 4 {
		t.Errorf("AllocLargest gave order %d at %#x, want order 2 at 4", got, pfn)
	}
	// With max below the largest free block, splits happen via Alloc.
	pfn2, got2, err := a.AllocLargest(0)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != 0 {
		t.Errorf("AllocLargest(0) order=%d", got2)
	}
	_ = pfn2
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCoverageFreshAllocator(t *testing.T) {
	a := New(1 << 20)
	cov := a.Coverage()
	for o := addr.Order(0); o <= addr.Order1G; o++ {
		if cov[o] < 0.999 {
			t.Errorf("fresh allocator coverage at %v = %f, want ~1", o, cov[o])
		}
	}
}

func TestCoverageFragmented(t *testing.T) {
	a := New(8)
	// Allocate all 8, free alternating singles: frames 1,3,5,7 free.
	var pfns []addr.PFN
	for i := 0; i < 8; i++ {
		p, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		pfns = append(pfns, p)
	}
	for i := 1; i < 8; i += 2 {
		if err := a.Free(pfns[i]); err != nil {
			t.Fatal(err)
		}
	}
	cov := a.Coverage()
	if cov[0] != 1.0 {
		t.Errorf("order-0 coverage=%f, want 1", cov[0])
	}
	if cov[1] != 0.0 {
		t.Errorf("order-1 coverage=%f, want 0 (no contiguity)", cov[1])
	}
}

func TestCoverageEmptyAllocator(t *testing.T) {
	a := New(4)
	p, _ := a.Alloc(2)
	_ = p
	cov := a.Coverage()
	if cov[0] != 0 {
		t.Errorf("coverage of empty free space=%f", cov[0])
	}
}

func TestCompactCoalesces(t *testing.T) {
	a := New(64)
	// Fragment: allocate 32 singles, free every other one.
	var pfns []addr.PFN
	for i := 0; i < 32; i++ {
		p, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		pfns = append(pfns, p)
	}
	for i := 0; i < 32; i += 2 {
		if err := a.Free(pfns[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := a.Coverage()
	reloc := a.Compact()
	after := a.Coverage()
	// Before: frames 0..31 hold interleaved used/free singles, so no
	// order-4 contiguity exists there. After: free space is 16..63, all
	// of it usable at order 4.
	if after[4] <= before[4] {
		t.Errorf("compaction did not improve order-4 coverage: %f -> %f", before[4], after[4])
	}
	if after[4] != 1.0 {
		t.Errorf("order-4 coverage after compaction=%f, want 1", after[4])
	}
	if len(reloc) != 16 {
		t.Errorf("relocation map has %d entries, want 16", len(reloc))
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// All 16 used singles must now sit at frames 0..15.
	for _, r := range reloc {
		if r.New >= 16 {
			t.Errorf("block relocated to %#x, expected dense low placement", r.New)
		}
	}
	// Resolve follows interior frames of moved blocks.
	if len(reloc) > 0 {
		r0 := reloc[0]
		if got := reloc.Resolve(r0.Old); got != r0.New {
			t.Errorf("Resolve(%#x)=%#x, want %#x", r0.Old, got, r0.New)
		}
	}
	// Frames never allocated resolve to themselves.
	if got := reloc.Resolve(63); got != 63 {
		t.Errorf("Resolve(free frame)=%#x", got)
	}
}

func TestCompactPreservesBlockCount(t *testing.T) {
	a := New(256)
	var owned []addr.PFN
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		o := addr.Order(rng.Intn(3))
		p, err := a.Alloc(o)
		if err != nil {
			continue
		}
		owned = append(owned, p)
	}
	freeBefore := a.FreePages()
	reloc := a.Compact()
	if a.FreePages() != freeBefore {
		t.Errorf("compaction changed free pages: %d -> %d", freeBefore, a.FreePages())
	}
	moved := make(map[addr.PFN]bool)
	for _, r := range reloc {
		moved[r.Old] = true
	}
	for _, old := range owned {
		if !moved[old] {
			t.Errorf("owned block %#x missing from relocation set", old)
		}
	}
}

// Randomized stress: interleaved allocs/frees at random orders keep all
// invariants and never lose memory.
func TestRandomizedStress(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	a := New(1 << 14) // 64 MB
	live := make(map[addr.PFN]struct{})
	for step := 0; step < 5000; step++ {
		if rng.Intn(2) == 0 && len(live) < 2000 {
			o := addr.Order(rng.Intn(8))
			pfn, err := a.Alloc(o)
			if err == nil {
				live[pfn] = struct{}{}
			}
		} else if len(live) > 0 {
			// Remove one deterministically-ish.
			var victim addr.PFN
			k := rng.Intn(len(live))
			for p := range live {
				if k == 0 {
					victim = p
					break
				}
				k--
			}
			delete(live, victim)
			if err := a.Free(victim); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Free everything: must merge back into maximal blocks.
	for p := range live {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if a.FreePages() != a.TotalPages() {
		t.Errorf("leak: free=%d total=%d", a.FreePages(), a.TotalPages())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := a.FreeBlockCount(14); got != 1 {
		t.Errorf("expected full merge into one order-14 block, snapshot=%v", a.Snapshot())
	}
}

func TestSnapshotMatchesCounts(t *testing.T) {
	a := New(1024)
	a.Alloc(3)
	a.Alloc(0)
	s := a.Snapshot()
	for o := addr.Order(0); o <= MaxOrder; o++ {
		if s[o] != a.FreeBlockCount(o) {
			t.Errorf("snapshot[%d]=%d != FreeBlockCount=%d", o, s[o], a.FreeBlockCount(o))
		}
	}
}

func TestOwned(t *testing.T) {
	a := New(64)
	p, _ := a.Alloc(2)
	if o, ok := a.Owned(p); !ok || o != 2 {
		t.Errorf("Owned=%d,%v", o, ok)
	}
	if _, ok := a.Owned(p + 1); ok {
		t.Error("interior frame reported as block start")
	}
}

func TestLargestFreeOrderEmpty(t *testing.T) {
	a := New(1)
	a.Alloc(0)
	if got := a.LargestFreeOrder(); got != -1 {
		t.Errorf("LargestFreeOrder on full allocator=%d", got)
	}
}

func TestAllocInvalidOrder(t *testing.T) {
	a := New(16)
	if _, err := a.Alloc(-1); err == nil {
		t.Error("negative order accepted")
	}
	if _, err := a.Alloc(MaxOrder + 1); err == nil {
		t.Error("oversized order accepted")
	}
}

// BenchmarkAllocFree measures one allocation plus one free on a 16 GB
// allocator (the size of each simulated machine). "pair" frees each block
// at once, so every free merges straight back; "churn" keeps 4096 blocks
// of mixed orders live and frees the oldest, so splits, merges and the
// lowest-address search work on populated free lists.
func BenchmarkAllocFree(b *testing.B) {
	b.Run("pair", func(b *testing.B) {
		a := New(1 << 22)
		for i := 0; i < b.N; i++ {
			p, err := a.Alloc(addr.Order(i % 4))
			if err != nil {
				b.Fatal(err)
			}
			if err := a.Free(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("churn", func(b *testing.B) {
		a := New(1 << 22)
		rng := rand.New(rand.NewSource(1))
		live := make([]addr.PFN, 4096)
		for i := range live {
			p, err := a.Alloc(addr.Order(rng.Intn(10)))
			if err != nil {
				b.Fatal(err)
			}
			live[i] = p
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			slot := i % len(live)
			if err := a.Free(live[slot]); err != nil {
				b.Fatal(err)
			}
			p, err := a.Alloc(addr.Order(rng.Intn(10)))
			if err != nil {
				b.Fatal(err)
			}
			live[slot] = p
		}
	})
}

func TestRelocationSetResolveInterior(t *testing.T) {
	rs := RelocationSet{
		{Old: 0x100, New: 0x10, Order: 2}, // 4 frames
		{Old: 0x200, New: 0x20, Order: 0},
	}
	cases := map[addr.PFN]addr.PFN{
		0x100: 0x10,
		0x103: 0x13, // interior frame follows the block
		0x104: 0x104,
		0x200: 0x20,
		0x1ff: 0x1ff,
		0x50:  0x50,
	}
	for in, want := range cases {
		if got := rs.Resolve(in); got != want {
			t.Errorf("Resolve(%#x)=%#x, want %#x", in, got, want)
		}
	}
}
