package mmu

import "tps/internal/addr"

// PWCache is one paging-structure (MMU) cache: a small fully associative
// cache of non-leaf page-table entries for a single tree level, keyed by
// the virtual-address prefix above that level's index (§II-A "MMU Cache").
// A hit lets the walker skip reading every level at or above the cached
// one, resuming directly below it.
type PWCache struct {
	level   int
	entries []pwcWay
	tick    uint64
	hits    uint64
	misses  uint64
}

type pwcWay struct {
	key   uint64
	valid bool
	lru   uint64
}

// NewPWCache creates a paging-structure cache for the given non-leaf level
// (1 = PDE, 2 = PDPTE, 3 = PML4E, 4 = PML5E) with the given entry count.
func NewPWCache(level, entries int) *PWCache {
	return &PWCache{level: level, entries: make([]pwcWay, entries)}
}

// key extracts the VA prefix identifying one entry at this cache's level:
// all translated bits above the level's table index... i.e. the VPN bits
// from the level's shift upward.
func (c *PWCache) key(v addr.Virt) uint64 {
	return uint64(v) >> (addr.BasePageShift + uint(c.level)*addr.LevelBits)
}

// find returns the way holding key k and true, or else the way Insert
// would replace and false: the first invalid way, else the first way with
// the smallest LRU stamp. guess is the caller's bet on k's way (the way
// this cache last used for it); valid keys are unique, so a guess that
// holds k is the answer without a scan.
func (c *PWCache) find(k uint64, guess int) (int, bool) {
	if w := &c.entries[guess]; w.valid && w.key == k {
		return guess, true
	}
	vi, free := 0, false
	for i := range c.entries {
		w := &c.entries[i]
		switch {
		case !w.valid:
			if !free {
				vi, free = i, true
			}
		case w.key == k:
			return i, true
		case !free && w.lru < c.entries[vi].lru:
			vi = i
		}
	}
	return vi, false
}

// LookupFill is a walk's use of the cache at one level: look up the
// non-leaf entry covering v, then cache it. It has exactly the effects of
// a lookup followed by Insert, in one scan: a hit counts and refreshes its
// way (a clock tick for each of the two steps), a miss counts and fills
// the way Insert would pick. It returns the way used, the caller's next
// guess (see find), and whether the lookup hit.
func (c *PWCache) LookupFill(v addr.Virt, guess int) (int, bool) {
	k := c.key(v)
	i, hit := c.find(k, guess)
	if hit {
		c.hits++
		c.tick += 2
	} else {
		c.misses++
		c.tick++
		c.entries[i] = pwcWay{key: k, valid: true}
	}
	c.entries[i].lru = c.tick
	return i, hit
}

// Insert caches the non-leaf entry covering v at this level, returning
// the way used (see find for guess).
func (c *PWCache) Insert(v addr.Virt, guess int) int {
	k := c.key(v)
	c.tick++
	i, hit := c.find(k, guess)
	if !hit {
		c.entries[i] = pwcWay{key: k, valid: true}
	}
	c.entries[i].lru = c.tick
	return i
}

// InvalidateRange drops cached entries whose subtree overlaps [start, end)
// (in base VPNs). Used on unmap/shootdown.
func (c *PWCache) InvalidateRange(start, end addr.VPN) {
	span := addr.VPN(1) << (uint(c.level) * addr.LevelBits)
	for i := range c.entries {
		w := &c.entries[i]
		if !w.valid {
			continue
		}
		eStart := addr.VPN(w.key) << (uint(c.level) * addr.LevelBits)
		eEnd := eStart + span
		if eStart < end && start < eEnd {
			w.valid = false
		}
	}
}

// Flush empties the cache.
func (c *PWCache) Flush() {
	for i := range c.entries {
		c.entries[i].valid = false
	}
}

// HitRate returns the cache's hit rate.
func (c *PWCache) HitRate() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}
