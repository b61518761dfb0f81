// Package mem implements the simulated physically-distributed, logically
// shared memory of the T3D model: a single word address space laid out over
// the program's arrays, an owner PE for every word (from the block
// distributions), and a per-word generation counter used by the coherence
// checker — a cached copy whose generation is older than memory's has been
// overwritten since it was cached, and reading it is a stale-value read.
package mem

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/craft"
	"repro/internal/ir"
)

// Layout assigns a base word address to every array of the program, each
// aligned to a cache line boundary (the paper requires arrays to start at
// the beginning of a cache line for the group-spatial mapping to be exact).
// It returns the total extent of the address space in words.
func Layout(p *ir.Program, lineWords int64) int64 {
	next := int64(0)
	align := func(x int64) int64 {
		if r := x % lineWords; r != 0 {
			return x + lineWords - r
		}
		return x
	}
	for _, a := range p.Arrays {
		next = align(next)
		a.Base = next
		// One line of inter-array padding: packed power-of-two arrays
		// (VPENTA's 128² matrices are an exact multiple of the 8 KB cache)
		// would otherwise map every array's (i,j) element to the same
		// direct-mapped slot and thrash; separately allocated arrays on a
		// real machine do not share low-order address bits like that.
		next += a.Size() + lineWords
	}
	return align(next)
}

// Memory is the simulated shared memory of one run. It is not safe for
// concurrent use: the execution engine runs every PE of an epoch on one
// goroutine.
type Memory struct {
	prog  *ir.Program
	numPE int
	words []uint64 // float64 bits
	gen   []uint32

	// spans[i] is the address range and owner divisor of arrays[i], sorted
	// by base for address→array lookup. Both are fixed at New, so OwnerOf is
	// a binary search plus one division, with no per-call slab geometry.
	spans  []span
	arrays []*ir.Array
}

// span is one array's address range [base, end) and its
// craft.OwnerDivisor (0 when PE 0 owns every word).
type span struct {
	base, end, ownDiv int64
}

// New builds the memory for a laid-out program. Layout must have been
// called (every array needs a distinct Base).
func New(p *ir.Program, numPE int, totalWords int64) *Memory {
	m := &Memory{
		prog:  p,
		numPE: numPE,
		words: make([]uint64, totalWords),
		gen:   make([]uint32, totalWords),
	}
	arrays := append([]*ir.Array(nil), p.Arrays...)
	sort.Slice(arrays, func(i, j int) bool { return arrays[i].Base < arrays[j].Base })
	for _, a := range arrays {
		m.spans = append(m.spans, span{base: a.Base, end: a.Base + a.Size(), ownDiv: craft.OwnerDivisor(a, numPE)})
		m.arrays = append(m.arrays, a)
	}
	return m
}

// Reset zeroes every word and generation, returning the memory to its
// just-built state without reallocating (engine reuse across runs).
func (m *Memory) Reset() {
	for i := range m.words {
		m.words[i] = 0
	}
	for i := range m.gen {
		m.gen[i] = 0
	}
}

// Clone returns a memory with its own copy of the word and generation
// state, sharing the immutable layout (program, array table). The execution
// engine detaches a finished run's memory from the engine before the engine
// is reused, so the returned Result stays valid.
func (m *Memory) Clone() *Memory {
	out := *m
	out.words = append([]uint64(nil), m.words...)
	out.gen = append([]uint32(nil), m.gen...)
	return &out
}

// ArrayNamed returns this memory's own record of the named array — the
// compiled clone's copy, whose Base matches this memory's layout. Callers
// comparing results across runs must resolve arrays through each run's
// memory, not through the shared source program, whose Base may since have
// been re-laid-out (e.g. by a concurrent compile at another line size).
func (m *Memory) ArrayNamed(name string) *ir.Array {
	return m.prog.ArrayByName(name)
}

// find returns the index of the span containing addr, or -1 (padding
// between arrays, or outside every array).
func (m *Memory) find(addr int64) int {
	i := sort.Search(len(m.spans), func(i int) bool { return m.spans[i].base > addr }) - 1
	if i < 0 || addr >= m.spans[i].end {
		return -1
	}
	return i
}

// ArrayOf returns the array containing the given word address, or nil.
func (m *Memory) ArrayOf(addr int64) *ir.Array {
	if i := m.find(addr); i >= 0 {
		return m.arrays[i]
	}
	return nil
}

// OwnerOf returns the PE owning the given word address (0 for private
// arrays, padding words and the sequential configuration). It equals
// craft.OwnerOfOffset for every word of every array.
func (m *Memory) OwnerOf(addr int64) int {
	i := m.find(addr)
	if i < 0 || m.spans[i].ownDiv == 0 {
		return 0
	}
	p := (addr - m.spans[i].base) / m.spans[i].ownDiv
	if p >= int64(m.numPE) {
		p = int64(m.numPE) - 1
	}
	return int(p)
}

// Read returns the value and generation of the word at addr.
func (m *Memory) Read(addr int64) (float64, uint32) {
	return math.Float64frombits(m.words[addr]), m.gen[addr]
}

// Value returns just the value at addr.
func (m *Memory) Value(addr int64) float64 {
	return math.Float64frombits(m.words[addr])
}

// Gen returns the current generation of addr.
func (m *Memory) Gen(addr int64) uint32 {
	return m.gen[addr]
}

// Write stores v at addr and bumps its generation. Within a parallel epoch
// only one PE writes a given address (the epoch execution model); the
// engine's race detector verifies this in tests.
func (m *Memory) Write(addr int64, v float64) uint32 {
	m.words[addr] = math.Float64bits(v)
	m.gen[addr]++
	return m.gen[addr]
}

// ArrayData returns a snapshot of one array's contents (for golden-value
// comparison after a run). The array is resolved by name against this
// memory's own program, so callers may pass a record from the source
// program even though the compiled clone owns the layout this memory was
// built from (the source's Base is never assigned).
func (m *Memory) ArrayData(a *ir.Array) []float64 {
	if own := m.prog.ArrayByName(a.Name); own != nil {
		a = own
	}
	out := make([]float64, a.Size())
	for i := range out {
		out[i] = math.Float64frombits(m.words[a.Base+int64(i)])
	}
	return out
}

// Words returns the total address-space size.
func (m *Memory) Words() int64 { return int64(len(m.words)) }

// NumPE returns the configured PE count.
func (m *Memory) NumPE() int { return m.numPE }

// AddrOf computes the word address of an array element, panicking on
// out-of-range subscripts with a diagnostic (an engine-level bounds check —
// the "program bug" detector).
func AddrOf(a *ir.Array, idx []int64) int64 {
	for d, x := range idx {
		if x < 0 || x >= a.Dims[d] {
			BoundsPanic(a, d, x)
		}
	}
	return a.Base + a.LinearOffset(idx)
}

// BoundsPanic reports an out-of-range subscript; the execution engine's
// precompiled address paths call it so their diagnostics stay identical to
// AddrOf's.
func BoundsPanic(a *ir.Array, d int, x int64) {
	panic(fmt.Sprintf("mem: %s subscript %d out of range: %d (extent %d)", a.Name, d, x, a.Dims[d]))
}
