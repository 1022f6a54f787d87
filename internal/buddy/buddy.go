// Package buddy implements the physical-memory buddy allocator the paper's
// OS layer depends on (§II-B). It tracks all free physical memory in
// per-order free lists of naturally aligned power-of-two blocks, splitting
// larger blocks on demand and eagerly merging freed buddies, exactly as the
// Linux allocator the paper describes.
//
// Beyond allocation, the package provides the pieces the evaluation needs:
//
//   - /proc/buddyinfo-style snapshots of the free-list population,
//   - free-memory coverage analysis ("what fraction of free memory could a
//     single page size use", Fig. 15),
//   - compaction (migrating used blocks to coalesce free space, §II-B),
//   - deterministic churn for building fragmented initial states (Fig. 16).
package buddy

import (
	"fmt"
	"sort"

	"tps/internal/addr"
)

// MaxOrder is the largest block order the allocator manages. Linux uses 11
// (4 MB); we extend to addr.MaxOrder (1 GB) so tailored reservations up to
// the largest page size are a single free-list hit, mirroring the paper's
// assumption that the allocator can hand out any power-of-two block.
const MaxOrder = addr.MaxOrder

// Stats counts allocator work. The system-time model (Fig. 17) charges a
// fixed cost per operation, so the counters must cover every mutation.
type Stats struct {
	Allocs     uint64 // successful block allocations
	Frees      uint64 // block frees
	Splits     uint64 // block splits during allocation
	Merges     uint64 // buddy merges during free
	Failures   uint64 // allocation failures (no block large enough)
	Migrations uint64 // base pages moved by compaction
}

// Allocator is a buddy allocator over a contiguous physical range starting
// at frame 0. It is not safe for concurrent use; the simulator is
// single-threaded per address space, like the paper's PIN-based model.
type Allocator struct {
	totalPages uint64
	freePages  uint64

	// free[o] holds every free order-o block by index (first frame >> o):
	// O(1) buddy lookup during merge, and its lowest member gives
	// deterministic lowest-address allocation.
	free [MaxOrder + 1]bitset

	// owned[o] holds every *allocated* order-o block the same way, so
	// Free can validate and size the release, and compaction can
	// enumerate used blocks.
	owned [MaxOrder + 1]bitset

	stats Stats
}

// New creates an allocator managing totalPages base frames. The range is
// seeded with the largest aligned blocks that fit, as after boot.
func New(totalPages uint64) *Allocator {
	a := &Allocator{totalPages: totalPages}
	var pfn addr.PFN
	remaining := totalPages
	for remaining > 0 {
		o := addr.LargestOrderFor(addr.VPN(pfn), remaining)
		if o > MaxOrder {
			o = MaxOrder
		}
		a.pushFree(o, pfn)
		pfn += addr.PFN(o.Pages())
		remaining -= o.Pages()
	}
	a.freePages = totalPages
	return a
}

// TotalPages returns the number of base frames managed.
func (a *Allocator) TotalPages() uint64 { return a.totalPages }

// FreePages returns the number of free base frames.
func (a *Allocator) FreePages() uint64 { return a.freePages }

// Stats returns a copy of the operation counters.
func (a *Allocator) Stats() Stats { return a.stats }

// Alloc allocates a naturally aligned block of the given order, splitting a
// larger block if necessary (§II-B "Buddy Memory Allocation"). It returns
// the block's first frame, or an error if no sufficiently large block is
// free — the caller (OS) then falls back to smaller pages or compaction.
func (a *Allocator) Alloc(order addr.Order) (addr.PFN, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("buddy: order %d out of range", order)
	}
	for o := order; o <= MaxOrder; o++ {
		pfn, ok := a.popFree(o)
		if !ok {
			continue
		}
		// Iteratively split until the block is the requested size; the
		// upper halves go back on the free lists.
		for cur := o; cur > order; cur-- {
			half := cur - 1
			upper := pfn + addr.PFN(half.Pages())
			a.pushFree(half, upper)
			a.stats.Splits++
		}
		a.owned[order].add(uint64(pfn) >> order)
		a.freePages -= order.Pages()
		a.stats.Allocs++
		return pfn, nil
	}
	a.stats.Failures++
	return 0, fmt.Errorf("buddy: no free block of order %d", order)
}

// AllocLargest allocates the largest available block of order <= max,
// returning its order. Used by reservation sizing under fragmentation:
// "leverage what contiguity it can" (§I).
func (a *Allocator) AllocLargest(max addr.Order) (addr.PFN, addr.Order, error) {
	for o := max; o >= 0; o-- {
		if a.free[o].len() > 0 {
			pfn, err := a.Alloc(o)
			return pfn, o, err
		}
	}
	// Nothing at or below max: all free blocks are larger (or none); a
	// plain Alloc at max will split one if it exists.
	pfn, err := a.Alloc(max)
	return pfn, max, err
}

// Free releases a previously allocated block and merges it with its free
// buddy repeatedly (§II-B). The pfn must be the exact value returned by
// Alloc.
func (a *Allocator) Free(pfn addr.PFN) error {
	order, ok := a.Owned(pfn)
	if !ok {
		return fmt.Errorf("buddy: free of unowned block %#x", pfn)
	}
	a.owned[order].remove(uint64(pfn) >> order)
	a.freePages += order.Pages()
	a.stats.Frees++

	for order < MaxOrder {
		buddyPFN := pfn ^ addr.PFN(order.Pages())
		if !a.free[order].has(uint64(buddyPFN) >> order) {
			break
		}
		a.free[order].remove(uint64(buddyPFN) >> order)
		if buddyPFN < pfn {
			pfn = buddyPFN
		}
		order++
		a.stats.Merges++
	}
	a.pushFree(order, pfn)
	return nil
}

// pushFree adds a free block to the order's free set.
func (a *Allocator) pushFree(o addr.Order, pfn addr.PFN) {
	a.free[o].add(uint64(pfn) >> o)
}

// popFree removes and returns the lowest-addressed free block of the order.
func (a *Allocator) popFree(o addr.Order) (addr.PFN, bool) {
	i, ok := a.free[o].min()
	if !ok {
		return 0, false
	}
	a.free[o].remove(i)
	return addr.PFN(i << o), true
}

// Owned reports whether pfn is the first frame of an allocated block, and
// the block's order.
func (a *Allocator) Owned(pfn addr.PFN) (addr.Order, bool) {
	// A block starts on a frame aligned to its order, so only orders up
	// to pfn's alignment can hold it.
	for o := addr.Order(0); o <= MaxOrder && pfn.Aligned(o); o++ {
		if a.owned[o].has(uint64(pfn) >> o) {
			return o, true
		}
	}
	return 0, false
}

// FreeBlockCount returns the number of free blocks of the given order,
// mirroring one column of /proc/buddyinfo.
func (a *Allocator) FreeBlockCount(order addr.Order) int { return a.free[order].len() }

// Snapshot returns the buddyinfo-style population: count of free blocks per
// order.
func (a *Allocator) Snapshot() [MaxOrder + 1]int {
	var s [MaxOrder + 1]int
	for o := range a.free {
		s[o] = a.free[o].len()
	}
	return s
}

// Coverage computes, for each order, the fraction of total free memory that
// could be allocated using only pages of that single size (Fig. 15): each
// free block of order b contributes floor(2^b / 2^o) * 2^o base pages of
// coverage at order o. Order 0 coverage is always 1.0 when any memory is
// free.
func (a *Allocator) Coverage() [MaxOrder + 1]float64 {
	var cov [MaxOrder + 1]float64
	if a.freePages == 0 {
		return cov
	}
	for o := addr.Order(0); o <= MaxOrder; o++ {
		var usable uint64
		for b := o; b <= MaxOrder; b++ {
			// Free-list blocks are naturally aligned, so every free
			// order-b block (b >= o) is fully tileable by order-o pages.
			usable += uint64(a.free[b].len()) * b.Pages()
		}
		cov[o] = float64(usable) / float64(a.freePages)
	}
	return cov
}

// LargestFreeOrder returns the order of the largest free block, or -1 if
// no memory is free.
func (a *Allocator) LargestFreeOrder() addr.Order {
	for o := addr.Order(MaxOrder); o >= 0; o-- {
		if a.free[o].len() > 0 {
			return o
		}
	}
	return -1
}

// usedBlock is one allocated block, for compaction planning.
type usedBlock struct {
	pfn   addr.PFN
	order addr.Order
}

// Relocation records one block's move during compaction.
type Relocation struct {
	Old   addr.PFN
	New   addr.PFN
	Order addr.Order
}

// RelocationSet resolves arbitrary frames through a compaction's block
// moves (the OS uses it to rewrite PTEs that point anywhere inside a
// moved block, including frames referenced by several address spaces).
type RelocationSet []Relocation

// Resolve maps a frame through the set: frames inside a moved block
// translate by the block's displacement; others are unchanged.
func (rs RelocationSet) Resolve(pfn addr.PFN) addr.PFN {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Old > pfn }) - 1
	if i < 0 {
		return pfn
	}
	r := rs[i]
	if pfn >= r.Old+addr.PFN(r.Order.Pages()) {
		return pfn
	}
	return r.New + (pfn - r.Old)
}

// Compact migrates allocated blocks toward low addresses to coalesce free
// memory, modeling the memory-compaction daemon (§II-B). It returns the
// relocations (sorted by old address) so the OS can update PTEs and shoot
// down TLB entries. Compaction preserves each block's order and natural
// alignment.
//
// The model is idealized full compaction: all used blocks are re-placed
// first-fit in address order. The paper's daemon is incremental, but the
// evaluation only needs before/after contiguity states.
func (a *Allocator) Compact() RelocationSet {
	var used []usedBlock
	for o := range a.owned {
		a.owned[o].each(func(i uint64) {
			used = append(used, usedBlock{addr.PFN(i << o), addr.Order(o)})
		})
	}
	// Place the largest blocks first (their alignment constraints are the
	// tightest), breaking ties by current address for determinism.
	sort.Slice(used, func(i, j int) bool {
		if used[i].order != used[j].order {
			return used[i].order > used[j].order
		}
		return used[i].pfn < used[j].pfn
	})

	// Rebuild the world: everything free, then re-allocate in sorted order.
	relocation := make(RelocationSet, 0, len(used))
	fresh := New(a.totalPages)
	for _, b := range used {
		newPFN, err := fresh.Alloc(b.order)
		if err != nil {
			// Cannot happen: the same blocks fit before.
			panic(fmt.Sprintf("buddy: compaction lost block: %v", err))
		}
		if newPFN != b.pfn {
			a.stats.Migrations += b.order.Pages()
		}
		relocation = append(relocation, Relocation{Old: b.pfn, New: newPFN, Order: b.order})
	}
	a.free = fresh.free
	a.owned = fresh.owned
	a.freePages = fresh.freePages
	fresh.stats = Stats{}
	sort.Slice(relocation, func(i, j int) bool { return relocation[i].Old < relocation[j].Old })
	return relocation
}

// CheckInvariants verifies internal consistency: free lists hold aligned,
// in-range, non-overlapping blocks; free page accounting matches; no block
// is both free and owned. Tests call this after randomized operation
// sequences.
func (a *Allocator) CheckInvariants() error {
	// covered has one bit per frame; blocks are aligned powers of two,
	// so a block fills whole words or lies inside one.
	covered := make([]uint64, (a.totalPages+63)/64)
	overlaps := func(pfn addr.PFN, o addr.Order) bool {
		if o >= 6 {
			for w := pfn / 64; w < (pfn+addr.PFN(o.Pages()))/64; w++ {
				if covered[w] != 0 {
					return true
				}
				covered[w] = ^uint64(0)
			}
			return false
		}
		m := (uint64(1)<<o.Pages() - 1) << (pfn % 64)
		hit := covered[pfn/64]&m != 0
		covered[pfn/64] |= m
		return hit
	}
	var counts [2]uint64 // free, owned
	for kind, sets := range [][MaxOrder + 1]bitset{a.free, a.owned} {
		for o := addr.Order(0); o <= MaxOrder; o++ {
			if err := sets[o].check(); err != nil {
				return fmt.Errorf("order %d: %v", o, err)
			}
			var err error
			sets[o].each(func(i uint64) {
				pfn := addr.PFN(i << o)
				switch {
				case err != nil:
				case uint64(pfn)+o.Pages() > a.totalPages:
					err = fmt.Errorf("block %#x order %d out of range", pfn, o)
				case overlaps(pfn, o):
					err = fmt.Errorf("block %#x order %d overlaps another free or owned block", pfn, o)
				default:
					counts[kind] += o.Pages()
				}
			})
			if err != nil {
				return err
			}
		}
	}
	freeCount, ownedCount := counts[0], counts[1]
	if freeCount != a.freePages {
		return fmt.Errorf("freePages=%d but free lists hold %d", a.freePages, freeCount)
	}
	if freeCount+ownedCount != a.totalPages {
		return fmt.Errorf("accounting: free %d + owned %d != total %d", freeCount, ownedCount, a.totalPages)
	}
	return nil
}
