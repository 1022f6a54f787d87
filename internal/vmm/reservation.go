package vmm

import (
	"math/bits"
	"sort"

	"tps/internal/addr"
)

// block is one physical allocation backing part of a reservation.
type block struct {
	pfn   addr.PFN   // first frame (as returned by the buddy allocator)
	order addr.Order // block order
	vpn   addr.VPN   // first virtual page the block backs
}

// reservation is one entry of the paging reservation table (§III-B1): a
// virtual chunk [vpn, vpn+2^order) backed by reserved physical memory that
// is neither free nor fully in use. Under fragmentation a chunk may be
// backed by several smaller blocks rather than one matching block; pages
// can then only grow to each backing block's size.
type reservation struct {
	vpn   addr.VPN
	order addr.Order

	// blocks cover the chunk's virtual range in ascending vpn order.
	blocks []block

	// touched marks demanded base pages (one bit each).
	touched      []uint64
	touchedCount uint64

	// whole reports that one page of the chunk's own order is installed
	// at vpn. It records an eagerly mapped chunk backed by one block, or
	// a fully promoted chunk, without allocating mappedOrd.
	whole bool

	// mappedOrd tracks the other installed pages: mappedOrd[i] is the
	// page order + 1 of a page starting at vpn+i, 0 where no page
	// starts. It is allocated on the first install smaller than the
	// chunk and is all zero while whole is set.
	mappedOrd []uint8

	// lazy marks a reservation whose pages are allocated frame by frame
	// at fault time (PolicyBase4K has no up-front reservation blocks, and
	// pages a CoW clone faults in later are private). lazyFrames[i] is
	// the order-0 buddy block backing vpn+i, plus one (0 = none yet); it
	// is allocated on the first lazy fault.
	lazy       bool
	lazyFrames []addr.PFN

	// ownsPhys reports whether this reservation frees its blocks and
	// lazy frames at release. Copy-on-write clones share physical memory
	// owned by a cowGroup instead (§III-C3).
	ownsPhys bool
}

func newReservation(vpn addr.VPN, order addr.Order) *reservation {
	words := (order.Pages() + 63) / 64
	return &reservation{
		vpn:      vpn,
		order:    order,
		touched:  make([]uint64, words),
		ownsPhys: true,
	}
}

// mappedAt returns the order of the installed page starting at vpn.
func (r *reservation) mappedAt(vpn addr.VPN) (addr.Order, bool) {
	if r.whole {
		return r.order, vpn == r.vpn
	}
	if r.mappedOrd == nil {
		return 0, false
	}
	mo := r.mappedOrd[vpn-r.vpn]
	return addr.Order(mo) - 1, mo != 0
}

// setMapped records an installed page of order o starting at vpn.
func (r *reservation) setMapped(vpn addr.VPN, o addr.Order) {
	if vpn == r.vpn && o == r.order {
		r.whole = true
		return
	}
	if r.mappedOrd == nil {
		r.mappedOrd = make([]uint8, r.order.Pages())
	}
	r.mappedOrd[vpn-r.vpn] = uint8(o + 1)
}

// clearMapped forgets the installed page starting at vpn.
func (r *reservation) clearMapped(vpn addr.VPN) {
	if r.whole && vpn == r.vpn {
		r.whole = false
		return
	}
	if r.mappedOrd != nil {
		r.mappedOrd[vpn-r.vpn] = 0
	}
}

// forEachMapped calls fn for every installed page in ascending vpn order.
// fn must not install or remove pages.
func (r *reservation) forEachMapped(fn func(vpn addr.VPN, o addr.Order)) {
	if r.whole {
		fn(r.vpn, r.order)
		return
	}
	for i := uint64(0); i < uint64(len(r.mappedOrd)); {
		mo := r.mappedOrd[i]
		if mo == 0 {
			i++
			continue
		}
		o := addr.Order(mo) - 1
		fn(r.vpn+addr.VPN(i), o)
		i += o.Pages()
	}
}

// covered reports whether some installed page covers vpn.
func (r *reservation) covered(vpn addr.VPN) bool {
	if r.whole {
		return true
	}
	if r.mappedOrd == nil {
		return false
	}
	for o := addr.Order(0); o <= r.order; o++ {
		base := vpn.AlignDown(o)
		if base < r.vpn {
			break
		}
		if r.mappedOrd[base-r.vpn] > uint8(o) {
			return true
		}
	}
	return false
}

// lazyFrame returns the lazily allocated frame backing vpn.
func (r *reservation) lazyFrame(vpn addr.VPN) (addr.PFN, bool) {
	if r.lazyFrames == nil {
		return 0, false
	}
	f := r.lazyFrames[vpn-r.vpn]
	return f - 1, f != 0
}

// setLazyFrame records pfn as the lazily allocated frame backing vpn.
func (r *reservation) setLazyFrame(vpn addr.VPN, pfn addr.PFN) {
	if r.lazyFrames == nil {
		r.lazyFrames = make([]addr.PFN, r.order.Pages())
	}
	r.lazyFrames[vpn-r.vpn] = pfn + 1
}

// forEachLazyFrame calls fn for every lazily allocated frame in ascending
// vpn order; fn returns the frame to store back (compaction relocates).
func (r *reservation) forEachLazyFrame(fn func(pfn addr.PFN) addr.PFN) {
	for i, f := range r.lazyFrames {
		if f != 0 {
			r.lazyFrames[i] = fn(f-1) + 1
		}
	}
}

// end returns the first VPN past the reservation.
func (r *reservation) end() addr.VPN { return r.vpn + addr.VPN(r.order.Pages()) }

// contains reports whether the vpn falls inside the reservation.
func (r *reservation) contains(vpn addr.VPN) bool { return vpn >= r.vpn && vpn < r.end() }

// markTouched sets the touched bit for vpn; it reports whether the bit was
// newly set.
func (r *reservation) markTouched(vpn addr.VPN) bool {
	i := uint64(vpn - r.vpn)
	w, b := i/64, i%64
	if r.touched[w]&(1<<b) != 0 {
		return false
	}
	r.touched[w] |= 1 << b
	r.touchedCount++
	return true
}

// markRegionTouched sets all bits in [start, start+pages); promotion below
// threshold 1.0 maps untouched pages, which count as utilized thereafter.
func (r *reservation) markRegionTouched(start addr.VPN, pages uint64) {
	for i, end := uint64(start-r.vpn), uint64(start-r.vpn)+pages; i < end; {
		w, b := i/64, i%64
		n := min(64-b, end-i)
		mask := (^uint64(0) >> (64 - n)) << b
		r.touchedCount += uint64(bits.OnesCount64(mask &^ r.touched[w]))
		r.touched[w] |= mask
		i += n
	}
}

// touchedIn counts touched base pages in [start, start+pages).
func (r *reservation) touchedIn(start addr.VPN, pages uint64) uint64 {
	off := uint64(start - r.vpn)
	var n uint64
	// Word-at-a-time popcount over the aligned promotion regions the
	// cascade checks (pages is a power of two and off is pages-aligned).
	if off%64 == 0 && pages%64 == 0 {
		for w := off / 64; w < (off+pages)/64; w++ {
			n += uint64(bits.OnesCount64(r.touched[w]))
		}
		return n
	}
	for i := uint64(0); i < pages; i++ {
		j := off + i
		if r.touched[j/64]&(1<<(j%64)) != 0 {
			n++
		}
	}
	return n
}

// frameFor returns the physical frame backing vpn and the order of the
// backing block (the maximum page size this vpn can ever grow to inside
// this reservation).
func (r *reservation) frameFor(vpn addr.VPN) (addr.PFN, addr.Order, bool) {
	if pfn, ok := r.lazyFrame(vpn); ok {
		return pfn, 0, true
	}
	// blocks are sorted by vpn; binary search for the covering block.
	i := sort.Search(len(r.blocks), func(i int) bool {
		return r.blocks[i].vpn > vpn
	}) - 1
	if i < 0 {
		return 0, 0, false
	}
	b := r.blocks[i]
	if vpn >= b.vpn+addr.VPN(b.order.Pages()) {
		return 0, 0, false
	}
	return b.pfn + addr.PFN(vpn-b.vpn), b.order, true
}

// blockFor returns the backing block containing vpn.
func (r *reservation) blockFor(vpn addr.VPN) (block, bool) {
	i := sort.Search(len(r.blocks), func(i int) bool {
		return r.blocks[i].vpn > vpn
	}) - 1
	if i < 0 {
		return block{}, false
	}
	b := r.blocks[i]
	if vpn >= b.vpn+addr.VPN(b.order.Pages()) {
		return block{}, false
	}
	return b, true
}
