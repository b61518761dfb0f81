// Package cache models the per-PE data cache of the simulated T3D: the
// Alpha 21064's 8 KB direct-mapped write-through D-cache with 32-byte
// lines. Lines carry the cached VALUES and the memory GENERATION of each
// word at fill time: a hit whose cached generation is older than memory's
// current generation is a stale-value read — the event the CCDP scheme must
// make impossible. Keeping values in the cache (rather than reading through
// to memory) makes staleness observable in computed results, which is how
// the engine's golden-value check proves coherence end to end.
package cache

import "math/bits"

// Line is one cache line's state.
type Line struct {
	Tag     int64 // word address of the line start; -1 when invalid
	Vals    []float64
	Gens    []uint32
	ReadyAt int64 // cycle at which the fill completes (0 = ready)
	// State is the line's coherence-protocol state byte, owned by the
	// protocol engine (internal/coherence's MESI states in the HW modes;
	// always 0 elsewhere — the cache itself never interprets it beyond
	// zeroing on install).
	State uint8
}

// Cache is a direct-mapped write-through cache.
type Cache struct {
	lineWords int64
	numLines  int64
	// lineShift is log2(lineWords) when lineWords and numLines are both
	// powers of two, so lineAddr and slot shift and mask instead of
	// dividing; -1 for the other geometries machine.Params accepts (a
	// 3-word line, say). Addresses are non-negative word addresses, where
	// both forms agree.
	lineShift int64
	lines     []Line
	// vals/gens are the single backing arrays every line's Vals/Gens slice
	// into: three allocations per cache instead of two per line, which was
	// the engine's dominant per-run allocation source (256 lines × 2 × one
	// cache per PE).
	vals []float64
	gens []uint32

	// Counters.
	Hits, Misses, Evictions, Installs, InvalidatedLines int64
}

// New builds a cache with the given total capacity and line size in words.
func New(capacityWords, lineWords int64) *Cache {
	n := capacityWords / lineWords
	c := &Cache{
		lineWords: lineWords, numLines: n, lineShift: lineShift(lineWords, n), lines: make([]Line, n),
		vals: make([]float64, n*lineWords), gens: make([]uint32, n*lineWords),
	}
	for i := range c.lines {
		lo, hi := int64(i)*lineWords, int64(i+1)*lineWords
		c.lines[i] = Line{Tag: -1, Vals: c.vals[lo:hi:hi], Gens: c.gens[lo:hi:hi]}
	}
	return c
}

// NewFleet builds count identical caches sharing slab-allocated backing
// (line metadata, values, generations): four allocations for a whole
// machine's worth of per-PE caches instead of three per cache, which
// matters for the engine's one-shot construction cost at 64 PEs.
func NewFleet(count int, capacityWords, lineWords int64) []*Cache {
	n := capacityWords / lineWords
	words := n * lineWords
	caches := make([]Cache, count)
	lineSlab := make([]Line, int64(count)*n)
	valSlab := make([]float64, int64(count)*words)
	genSlab := make([]uint32, int64(count)*words)
	out := make([]*Cache, count)
	for ci := range caches {
		c := &caches[ci]
		c.lineWords, c.numLines, c.lineShift = lineWords, n, lineShift(lineWords, n)
		lb := int64(ci) * n
		wb := int64(ci) * words
		c.lines = lineSlab[lb : lb+n : lb+n]
		c.vals = valSlab[wb : wb+words : wb+words]
		c.gens = genSlab[wb : wb+words : wb+words]
		for i := range c.lines {
			lo, hi := int64(i)*lineWords, int64(i+1)*lineWords
			c.lines[i] = Line{Tag: -1, Vals: c.vals[lo:hi:hi], Gens: c.gens[lo:hi:hi]}
		}
		out[ci] = c
	}
	return out
}

// lineShift returns log2(lineWords) when lineWords and numLines are both
// powers of two, and -1 otherwise.
func lineShift(lineWords, numLines int64) int64 {
	if lineWords <= 0 || numLines <= 0 || lineWords&(lineWords-1) != 0 || numLines&(numLines-1) != 0 {
		return -1
	}
	return int64(bits.TrailingZeros64(uint64(lineWords)))
}

// Reset invalidates every line and zeroes the counters, returning the
// cache to its just-built state without reallocating line storage (engine
// reuse across runs). Stale values behind invalid tags are never read.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i].Tag = -1
		c.lines[i].ReadyAt = 0
		c.lines[i].State = 0
	}
	c.Hits, c.Misses, c.Evictions, c.Installs, c.InvalidatedLines = 0, 0, 0, 0, 0
}

// LineWords returns the line size in words.
func (c *Cache) LineWords() int64 { return c.lineWords }

// lineAddr returns the line-aligned address containing addr.
func (c *Cache) lineAddr(addr int64) int64 {
	if c.lineShift >= 0 {
		return addr &^ (c.lineWords - 1)
	}
	return addr - addr%c.lineWords
}

// slot returns the direct-mapped index for a line address.
func (c *Cache) slot(lineAddr int64) int64 {
	if c.lineShift >= 0 {
		return lineAddr >> c.lineShift & (c.numLines - 1)
	}
	return (lineAddr / c.lineWords) % c.numLines
}

// Lookup probes the cache for addr. On a hit it returns the cached value,
// its fill-time generation, and the line's ready time.
func (c *Cache) Lookup(addr int64) (val float64, gen uint32, readyAt int64, hit bool) {
	la := c.lineAddr(addr)
	l := &c.lines[c.slot(la)]
	if l.Tag != la {
		c.Misses++
		return 0, 0, 0, false
	}
	c.Hits++
	off := addr - la
	return l.Vals[off], l.Gens[off], l.ReadyAt, true
}

// Contains reports whether addr is cached, without touching counters.
func (c *Cache) Contains(addr int64) bool {
	la := c.lineAddr(addr)
	return c.lines[c.slot(la)].Tag == la
}

// Install fills the line containing addr with the given words and
// generations (len == LineWords, indexed from the line start), available at
// readyAt. It returns true if a valid line was evicted.
func (c *Cache) Install(addr int64, vals []float64, gens []uint32, readyAt int64) bool {
	la := c.lineAddr(addr)
	l := &c.lines[c.slot(la)]
	evicted := l.Tag != -1 && l.Tag != la
	if evicted {
		c.Evictions++
	}
	l.Tag = la
	copy(l.Vals, vals)
	copy(l.Gens, gens)
	l.ReadyAt = readyAt
	l.State = 0
	c.Installs++
	return evicted
}

// State returns the coherence state byte of the line containing addr, or
// 0 when the line is not present.
func (c *Cache) State(addr int64) uint8 {
	la := c.lineAddr(addr)
	l := &c.lines[c.slot(la)]
	if l.Tag != la {
		return 0
	}
	return l.State
}

// SetState sets the coherence state byte of the line containing addr,
// reporting whether the line was present.
func (c *Cache) SetState(addr int64, st uint8) bool {
	la := c.lineAddr(addr)
	l := &c.lines[c.slot(la)]
	if l.Tag != la {
		return false
	}
	l.State = st
	return true
}

// Victim returns the valid line that installing addr's line would evict
// (its tag and state byte), if any — the protocol engine checks it for a
// dirty state needing writeback before the Install overwrites it.
func (c *Cache) Victim(addr int64) (tag int64, state uint8, ok bool) {
	la := c.lineAddr(addr)
	l := &c.lines[c.slot(la)]
	if l.Tag < 0 || l.Tag == la {
		return 0, 0, false
	}
	return l.Tag, l.State, true
}

// InvalidateLine drops exactly the line with line-start address la if
// present, returning whether it did — the O(1) targeted drop the
// directory's invalidations use (InvalidateRange scans the whole cache).
func (c *Cache) InvalidateLine(la int64) bool {
	l := &c.lines[c.slot(la)]
	if l.Tag != la {
		return false
	}
	l.Tag = -1
	c.InvalidatedLines++
	return true
}

// UpdateWord updates a cached word in place (write-through keeps the cached
// copy current on the writer's own PE). Returns false if the line is not
// present (no-write-allocate).
func (c *Cache) UpdateWord(addr int64, val float64, gen uint32) bool {
	la := c.lineAddr(addr)
	l := &c.lines[c.slot(la)]
	if l.Tag != la {
		return false
	}
	off := addr - la
	l.Vals[off] = val
	l.Gens[off] = gen
	return true
}

// InvalidateRange invalidates every line that intersects the word range
// [lo, hi] and returns the number of lines dropped. The scan cost is
// bounded by the cache size: a real implementation walks the cache once.
func (c *Cache) InvalidateRange(lo, hi int64) int64 {
	var n int64
	for i := range c.lines {
		l := &c.lines[i]
		if l.Tag < 0 {
			continue
		}
		if l.Tag+c.lineWords-1 >= lo && l.Tag <= hi {
			l.Tag = -1
			n++
		}
	}
	c.InvalidatedLines += n
	return n
}

// InvalidateAll empties the cache.
func (c *Cache) InvalidateAll() int64 {
	var n int64
	for i := range c.lines {
		if c.lines[i].Tag >= 0 {
			c.lines[i].Tag = -1
			n++
		}
	}
	c.InvalidatedLines += n
	return n
}
