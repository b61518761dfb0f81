package coherence

import (
	"fmt"
	"math/bits"
)

// ReadResult is the directory's answer to a read-miss fill request.
type ReadResult struct {
	// Excl is true when the requester is the line's only holder: the fill
	// installs in Exclusive, and a later store upgrades silently.
	Excl bool
	// Recall names the PE holding the line exclusively (it must be
	// downgraded to S, writing back if Modified) — -1 when none.
	Recall int
	// EvictedLine is set (≥ 0) when allocating a sparse-directory entry
	// evicted another line's entry: every PE in EvictedSharers must drop
	// its copy of that line. -1 otherwise. EvictedSharers aliases scratch
	// owned by the Directory, valid until the next call.
	EvictedLine    int64
	EvictedSharers []int
}

// WriteResult is the directory's answer to a write (upgrade or write miss).
type WriteResult struct {
	// Sharers lists the PEs (never the writer) whose copies must be
	// invalidated, in ascending order. Under a limited-pointer overflow it
	// is every other PE. Aliases scratch owned by the Directory, valid
	// until the next call.
	Sharers []int
	// Broadcast is true when Sharers came from an overflowed
	// limited-pointer entry rather than a precise sharer set.
	Broadcast bool
}

// sentry is one sparse-directory entry: a cached slice of the full
// presence-bit state for one line.
type sentry struct {
	line int64 // global line index; -1 when free
	excl int32 // exclusive owner; -1 when none
	last int64 // LRU clock of the entry's most recent use
}

// Directory is the home-node coherence directory over the whole shared
// address space, in one of the three organizations. Line indices are
// global (addr / LineWords); the caller passes each line's home PE, which
// only the sparse organization uses (each home node owns its own entry
// table).
type Directory struct {
	cfg      Config
	numPE    int
	numLines int64
	wpl      int // presence-bitset words per line / entry

	// Full-map and limited-pointer state, dense over all lines.
	excl  []int32  // exclusive owner per line; -1 none (full-map, limited)
	bits  []uint64 // full-map presence bits, wpl words per line
	ptrs  []int32  // limited: Pointers slots per line; -1 free
	bcast []bool   // limited: entry overflowed, later writes broadcast

	// Sparse state: SparseLines entries per home PE, set-associative.
	entries []sentry
	ebits   []uint64 // presence bits, wpl words per entry
	sets    int64    // sets per home node
	clock   int64

	// Evictions counts sparse entries evicted to make room — each one
	// forced the invalidation of a still-live line's sharers.
	Evictions int64

	shBuf []int // WriteResult.Sharers scratch
	evBuf []int // ReadResult.EvictedSharers scratch
}

// NewDirectory builds a directory covering numLines cache lines across
// numPE nodes.
func NewDirectory(cfg Config, numPE int, numLines int64) *Directory {
	cfg = cfg.WithDefaults()
	d := &Directory{
		cfg: cfg, numPE: numPE, numLines: numLines,
		wpl:   (numPE + 63) / 64,
		shBuf: make([]int, 0, numPE),
		evBuf: make([]int, 0, numPE),
	}
	switch cfg.Org {
	case OrgFullMap:
		d.excl = make([]int32, numLines)
		d.bits = make([]uint64, numLines*int64(d.wpl))
	case OrgLimited:
		d.excl = make([]int32, numLines)
		d.ptrs = make([]int32, numLines*int64(cfg.Pointers))
		d.bcast = make([]bool, numLines)
	case OrgSparse:
		d.sets = cfg.SparseLines / int64(cfg.SparseWays)
		total := int64(numPE) * d.sets * int64(cfg.SparseWays)
		d.entries = make([]sentry, total)
		d.ebits = make([]uint64, total*int64(d.wpl))
	default:
		panic(fmt.Sprintf("coherence: unknown org %v", cfg.Org))
	}
	d.Reset()
	return d
}

// Reset clears every entry without releasing storage (engine reuse).
func (d *Directory) Reset() {
	for i := range d.excl {
		d.excl[i] = -1
	}
	for i := range d.bits {
		d.bits[i] = 0
	}
	for i := range d.ptrs {
		d.ptrs[i] = -1
	}
	for i := range d.bcast {
		d.bcast[i] = false
	}
	for i := range d.entries {
		d.entries[i] = sentry{line: -1, excl: -1}
	}
	for i := range d.ebits {
		d.ebits[i] = 0
	}
	d.clock = 0
	d.Evictions = 0
}

// Org returns the directory's organization.
func (d *Directory) Org() Org { return d.cfg.Org }

// StorageBits is the hardware storage cost of this directory
// configuration in bits — the number the paper's comparison holds against
// CCDP's zero. Per entry: 2 state bits plus the sharer representation
// (full-map: one presence bit per PE; limited: i pointers of ⌈log₂N⌉ bits
// and the broadcast bit; sparse: a full-map entry plus the line tag).
func (d *Directory) StorageBits() int64 {
	state := int64(2)
	switch d.cfg.Org {
	case OrgFullMap:
		return d.numLines * (int64(d.numPE) + state)
	case OrgLimited:
		return d.numLines * (int64(d.cfg.Pointers)*ceilLog2(int64(d.numPE)) + 1 + state)
	default:
		tag := ceilLog2(d.numLines)
		perEntry := tag + int64(d.numPE) + state
		return int64(d.numPE) * d.sets * int64(d.cfg.SparseWays) * perEntry
	}
}

func ceilLog2(n int64) int64 {
	if n <= 1 {
		return 0
	}
	return int64(bits.Len64(uint64(n - 1)))
}

// --- presence-bit helpers ---------------------------------------------------

func setBit(w []uint64, pe int)   { w[pe>>6] |= 1 << (pe & 63) }
func clearBit(w []uint64, pe int) { w[pe>>6] &^= 1 << (pe & 63) }

func popcount(w []uint64) int {
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	return n
}

// appendSharers appends the set PEs in ascending order, skipping skip.
func appendSharers(dst []int, w []uint64, skip int) []int {
	for wi, x := range w {
		for x != 0 {
			b := bits.TrailingZeros64(x)
			pe := wi*64 + b
			if pe != skip {
				dst = append(dst, pe)
			}
			x &^= 1 << b
		}
	}
	return dst
}

// --- Read (fill request) ----------------------------------------------------

// Read registers PE pe as a sharer of line after a read miss, returning
// the fill grant. home is the line's home node (used by the sparse
// organization to pick the entry table).
func (d *Directory) Read(line int64, home, pe int) ReadResult {
	res := ReadResult{Recall: -1, EvictedLine: -1}
	switch d.cfg.Org {
	case OrgFullMap:
		w := d.lineBits(line)
		if o := d.excl[line]; o >= 0 && int(o) != pe {
			res.Recall = int(o)
		}
		d.excl[line] = -1
		setBit(w, pe)
		if popcount(w) == 1 {
			d.excl[line] = int32(pe)
			res.Excl = true
		}
	case OrgLimited:
		if o := d.excl[line]; o >= 0 && int(o) != pe {
			res.Recall = int(o)
		}
		d.excl[line] = -1
		d.limitedAdd(line, pe)
		if !d.bcast[line] && d.limitedSole(line, pe) {
			d.excl[line] = int32(pe)
			res.Excl = true
		}
	default:
		e, w := d.sparseFind(line, home)
		if e == nil {
			e, w, res.EvictedLine, res.EvictedSharers = d.sparseAlloc(line, home)
		}
		if o := e.excl; o >= 0 && int(o) != pe {
			res.Recall = int(o)
		}
		e.excl = -1
		setBit(w, pe)
		if popcount(w) == 1 {
			e.excl = int32(pe)
			res.Excl = true
		}
		d.clock++
		e.last = d.clock
	}
	return res
}

// --- Write (upgrade or write miss) -------------------------------------------

// Write records a store by PE pe to line: every other holder must be
// invalidated. holds reports whether the writer's own cache has the line
// (a hit-S upgrade or a hit-E/M path that consulted the directory): the
// writer then becomes the line's exclusive Modified owner; otherwise
// (write miss, no-write-allocate) the line ends uncached and the entry is
// released.
func (d *Directory) Write(line int64, home, pe int, holds bool) WriteResult {
	res := WriteResult{}
	d.shBuf = d.shBuf[:0]
	switch d.cfg.Org {
	case OrgFullMap:
		w := d.lineBits(line)
		d.shBuf = appendSharers(d.shBuf, w, pe)
		res.Sharers = d.shBuf
		for i := range w {
			w[i] = 0
		}
		d.excl[line] = -1
		if holds {
			setBit(w, pe)
			d.excl[line] = int32(pe)
		}
	case OrgLimited:
		if d.bcast[line] {
			res.Broadcast = true
			for q := 0; q < d.numPE; q++ {
				if q != pe {
					d.shBuf = append(d.shBuf, q)
				}
			}
		} else {
			p := d.linePtrs(line)
			for _, q := range p {
				if q >= 0 && int(q) != pe {
					d.shBuf = append(d.shBuf, int(q))
				}
			}
			sortInts(d.shBuf)
		}
		res.Sharers = d.shBuf
		p := d.linePtrs(line)
		for i := range p {
			p[i] = -1
		}
		d.bcast[line] = false
		d.excl[line] = -1
		if holds {
			p[0] = int32(pe)
			d.excl[line] = int32(pe)
		}
	default:
		e, w := d.sparseFind(line, home)
		if e == nil {
			// No entry: nothing is cached (a held copy always has a live
			// entry — entry eviction invalidates its sharers). The lenient
			// fallback matters only under the drop-invalidations sabotage,
			// where that invariant is deliberately broken.
			return res
		}
		d.shBuf = appendSharers(d.shBuf, w, pe)
		res.Sharers = d.shBuf
		for i := range w {
			w[i] = 0
		}
		e.excl = -1
		if holds {
			setBit(w, pe)
			e.excl = int32(pe)
			d.clock++
			e.last = d.clock
		} else {
			e.line = -1 // uncached: release the precious entry
		}
	}
	return res
}

// Evict tells the directory PE pe wrote back and dropped its Modified
// copy of line on a conflict eviction (clean S/E drops are silent — the
// directory keeps a superset and its invalidations may find nothing).
func (d *Directory) Evict(line int64, home, pe int) {
	switch d.cfg.Org {
	case OrgFullMap:
		clearBit(d.lineBits(line), pe)
		if d.excl[line] == int32(pe) {
			d.excl[line] = -1
		}
	case OrgLimited:
		if !d.bcast[line] {
			p := d.linePtrs(line)
			for i, q := range p {
				if q == int32(pe) {
					p[i] = -1
				}
			}
		}
		if d.excl[line] == int32(pe) {
			d.excl[line] = -1
		}
	default:
		e, w := d.sparseFind(line, home)
		if e == nil {
			return
		}
		clearBit(w, pe)
		if e.excl == int32(pe) {
			e.excl = -1
		}
		if popcount(w) == 0 {
			e.line = -1
		}
	}
}

// Sharers appends line's current holders (ascending, no skip) to dst —
// test and diagnostic accessor.
func (d *Directory) Sharers(line int64, home int, dst []int) []int {
	switch d.cfg.Org {
	case OrgFullMap:
		return appendSharers(dst, d.lineBits(line), -1)
	case OrgLimited:
		if d.bcast[line] {
			for q := 0; q < d.numPE; q++ {
				dst = append(dst, q)
			}
			return dst
		}
		for _, q := range d.linePtrs(line) {
			if q >= 0 {
				dst = append(dst, int(q))
			}
		}
		sortInts(dst)
		return dst
	default:
		e, w := d.sparseFind(line, home)
		if e == nil {
			return dst
		}
		return appendSharers(dst, w, -1)
	}
}

// --- organization internals ---------------------------------------------------

func (d *Directory) lineBits(line int64) []uint64 {
	lo := line * int64(d.wpl)
	return d.bits[lo : lo+int64(d.wpl)]
}

func (d *Directory) linePtrs(line int64) []int32 {
	lo := line * int64(d.cfg.Pointers)
	return d.ptrs[lo : lo+int64(d.cfg.Pointers)]
}

// limitedAdd records pe as a sharer, overflowing to broadcast when the
// pointer slots are full (Dir_i_B).
func (d *Directory) limitedAdd(line int64, pe int) {
	if d.bcast[line] {
		return
	}
	p := d.linePtrs(line)
	free := -1
	for i, q := range p {
		if q == int32(pe) {
			return
		}
		if q < 0 && free < 0 {
			free = i
		}
	}
	if free >= 0 {
		p[free] = int32(pe)
		return
	}
	d.bcast[line] = true
}

// limitedSole reports whether pe is the entry's only pointer.
func (d *Directory) limitedSole(line int64, pe int) bool {
	for _, q := range d.linePtrs(line) {
		if q >= 0 && q != int32(pe) {
			return false
		}
	}
	return hasPtr(d.linePtrs(line), pe)
}

func hasPtr(p []int32, pe int) bool {
	for _, q := range p {
		if q == int32(pe) {
			return true
		}
	}
	return false
}

func (d *Directory) entryBits(idx int64) []uint64 {
	lo := idx * int64(d.wpl)
	return d.ebits[lo : lo+int64(d.wpl)]
}

// sparseFind locates line's entry in its home node's table, or nil.
func (d *Directory) sparseFind(line int64, home int) (*sentry, []uint64) {
	base := (int64(home)*d.sets + line%d.sets) * int64(d.cfg.SparseWays)
	for i := int64(0); i < int64(d.cfg.SparseWays); i++ {
		if d.entries[base+i].line == line {
			return &d.entries[base+i], d.entryBits(base + i)
		}
	}
	return nil, nil
}

// sparseAlloc claims an entry for line in its home set, evicting the LRU
// entry when the set is full. The victim's line and sharers are returned
// so the caller can invalidate every copy of the evicted line.
func (d *Directory) sparseAlloc(line int64, home int) (*sentry, []uint64, int64, []int) {
	base := (int64(home)*d.sets + line%d.sets) * int64(d.cfg.SparseWays)
	victim := base
	for i := int64(0); i < int64(d.cfg.SparseWays); i++ {
		e := &d.entries[base+i]
		if e.line < 0 {
			victim = base + i
			break
		}
		if e.last < d.entries[victim].last {
			victim = base + i
		}
	}
	e, w := &d.entries[victim], d.entryBits(victim)
	evLine, evSharers := int64(-1), []int(nil)
	if e.line >= 0 {
		d.Evictions++
		evLine = e.line
		d.evBuf = appendSharers(d.evBuf[:0], w, -1)
		evSharers = d.evBuf
	}
	*e = sentry{line: line, excl: -1}
	for i := range w {
		w[i] = 0
	}
	return e, w, evLine, evSharers
}

// sortInts is an insertion sort: sharer lists are at most a handful of
// entries, and sort.Ints would allocate an interface.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
