// Package cache models the R10000's on-chip 32 KB instruction and
// 32 KB data caches as direct-mapped caches with 32-byte lines. A miss
// costs the flat Table 2 penalty (6 cycles), applied by the pipeline.
package cache

import (
	"fmt"
	"math/bits"
)

// Cache is a direct-mapped cache.
type Cache struct {
	lineBytes int
	lineShift uint // log2(lineBytes): Access shifts instead of dividing
	numLines  int
	tags      []uint64
	valid     []bool

	accesses int64
	misses   int64
}

// New returns a direct-mapped cache of sizeBytes with lineBytes lines.
// Both must be powers of two with sizeBytes ≥ lineBytes.
func New(sizeBytes, lineBytes int) *Cache {
	if sizeBytes <= 0 || lineBytes <= 0 || sizeBytes%lineBytes != 0 {
		panic(fmt.Sprintf("cache: bad geometry %d/%d", sizeBytes, lineBytes))
	}
	if sizeBytes&(sizeBytes-1) != 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("cache: sizes must be powers of two: %d/%d", sizeBytes, lineBytes))
	}
	n := sizeBytes / lineBytes
	return &Cache{
		lineBytes: lineBytes,
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		numLines:  n,
		tags:      make([]uint64, n),
		valid:     make([]bool, n),
	}
}

// Access looks up addr, fills the line on a miss, and reports whether
// it hit.
func (c *Cache) Access(addr uint64) bool {
	c.accesses++
	line := addr >> c.lineShift
	idx := int(line) & (c.numLines - 1)
	if c.valid[idx] && c.tags[idx] == line {
		return true
	}
	c.valid[idx] = true
	c.tags[idx] = line
	c.misses++
	return false
}

// Geometry returns the cache's size and line size in bytes.
func (c *Cache) Geometry() (sizeBytes, lineBytes int) {
	return c.numLines * c.lineBytes, c.lineBytes
}

// Stats returns (accesses, misses).
func (c *Cache) Stats() (accesses, misses int64) { return c.accesses, c.misses }

// MissRate returns misses/accesses (0 when idle).
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Reset invalidates every line and clears statistics.
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.accesses, c.misses = 0, 0
}
