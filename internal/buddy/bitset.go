package buddy

import (
	"fmt"
	"math/bits"
	"slices"
)

// bitset is a set of block indices (frame number >> order) backed by a
// bitmap that grows on demand to the highest index ever set, so an
// allocator over many gigabytes of mostly untouched memory stays small.
// A summary bit per bitmap word and a low-water hint make the lowest
// member cheap to find, which gives lowest-address-first allocation.
type bitset struct {
	words []uint64
	sum   []uint64 // bit w set iff words[w] != 0
	lo    int      // no sum word below lo is nonzero
	n     int      // members
}

func (b *bitset) len() int { return b.n }

func (b *bitset) has(i uint64) bool {
	w := i / 64
	return w < uint64(len(b.words)) && b.words[w]&(1<<(i%64)) != 0
}

// add inserts i, which must not be a member.
func (b *bitset) add(i uint64) {
	w := i / 64
	if w >= uint64(len(b.words)) {
		b.words = grow(b.words, w+1)
		b.sum = grow(b.sum, (w+64)/64)
	}
	b.words[w] |= 1 << (i % 64)
	b.sum[w/64] |= 1 << (w % 64)
	if s := int(w / 64); s < b.lo {
		b.lo = s
	}
	b.n++
}

// remove deletes i, which must be a member.
func (b *bitset) remove(i uint64) {
	w := i / 64
	b.words[w] &^= 1 << (i % 64)
	if b.words[w] == 0 {
		b.sum[w/64] &^= 1 << (w % 64)
	}
	b.n--
}

// min returns the lowest member.
func (b *bitset) min() (uint64, bool) {
	if b.n == 0 {
		return 0, false
	}
	for b.sum[b.lo] == 0 {
		b.lo++
	}
	w := uint64(b.lo)*64 + uint64(bits.TrailingZeros64(b.sum[b.lo]))
	return w*64 + uint64(bits.TrailingZeros64(b.words[w])), true
}

// each calls fn for every member in ascending order; fn must not modify
// the set.
func (b *bitset) each(fn func(i uint64)) {
	for w, word := range b.words {
		for word != 0 {
			fn(uint64(w)*64 + uint64(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// grow extends s with zero words to length n, amortizing reallocation.
func grow(s []uint64, n uint64) []uint64 {
	old := len(s)
	if n <= uint64(old) {
		return s
	}
	s = slices.Grow(s, int(n)-old)[:n]
	clear(s[old:])
	return s
}

// check verifies the summary, member count and low-water hint against
// the bitmap.
func (b *bitset) check() error {
	n := 0
	for w, word := range b.words {
		n += bits.OnesCount64(word)
		if (word != 0) != (b.sum[w/64]&(1<<(w%64)) != 0) {
			return fmt.Errorf("bitset: summary bit for word %d disagrees", w)
		}
		if word != 0 && w/64 < b.lo {
			return fmt.Errorf("bitset: word %d below low-water hint %d", w, b.lo)
		}
	}
	if n != b.n {
		return fmt.Errorf("bitset: %d members counted, %d recorded", n, b.n)
	}
	return nil
}
