// Package craft models the work- and data-distribution conventions of the
// Cray MPP Fortran (CRAFT) programming model the paper's codes use:
// block-distributed shared arrays, doshared loop scheduling, and the
// iteration→PE and address→owner mappings both the compiler (stale
// reference analysis) and the runtime (execution engine) must agree on.
package craft

import (
	"repro/internal/ir"
)

// Chunk is a contiguous range of loop iterations assigned to one PE.
type Chunk struct {
	Lo, Hi int64 // inclusive; Lo > Hi means the PE received no iterations
}

// Empty reports whether the chunk holds no iterations.
func (c Chunk) Empty() bool { return c.Lo > c.Hi }

// Count returns the number of iterations in the chunk.
func (c Chunk) Count() int64 {
	if c.Empty() {
		return 0
	}
	return c.Hi - c.Lo + 1
}

// BlockChunk returns the iterations of a step-1 loop lo..hi assigned to PE
// pe of numPE under block (static) scheduling: ceil(n/P)-sized contiguous
// blocks, matching CRAFT's block distribution so that iteration i is
// executed by the PE owning block i.
func BlockChunk(lo, hi int64, numPE, pe int) Chunk {
	n := hi - lo + 1
	if n <= 0 {
		return Chunk{Lo: 1, Hi: 0}
	}
	size := (n + int64(numPE) - 1) / int64(numPE)
	cLo := lo + int64(pe)*size
	cHi := cLo + size - 1
	if cHi > hi {
		cHi = hi
	}
	if cLo > hi {
		return Chunk{Lo: 1, Hi: 0}
	}
	return Chunk{Lo: cLo, Hi: cHi}
}

// AlignedChunk returns the iterations of a step-1 loop lo..hi executed by
// PE pe when the loop is aligned with a block distribution of the given
// extent: pe runs exactly the iterations whose value falls in its slab of
// 0..extent-1 (CRAFT doshared alignment). The loop range must lie within
// the extent.
func AlignedChunk(lo, hi, extent int64, numPE, pe int) Chunk {
	slab := BlockChunk(0, extent-1, numPE, pe)
	if slab.Empty() {
		return slab
	}
	c := Chunk{Lo: max64(lo, slab.Lo), Hi: min64(hi, slab.Hi)}
	if c.Lo > c.Hi {
		return Chunk{Lo: 1, Hi: 0}
	}
	return c
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// OwnerOfIteration returns the PE that executes iteration i of a
// block-scheduled step-1 loop lo..hi.
func OwnerOfIteration(lo, hi int64, numPE int, i int64) int {
	n := hi - lo + 1
	if n <= 0 {
		return 0
	}
	size := (n + int64(numPE) - 1) / int64(numPE)
	p := int((i - lo) / size)
	if p >= numPE {
		p = numPE - 1
	}
	return p
}

// SlabExtent returns the extent of array a's distributed (last) dimension.
func SlabExtent(a *ir.Array) int64 { return a.Dims[len(a.Dims)-1] }

// OwnerSlab returns the index range of the last dimension of array a owned
// by PE pe under block distribution.
func OwnerSlab(a *ir.Array, numPE, pe int) Chunk {
	return BlockChunk(0, SlabExtent(a)-1, numPE, pe)
}

// OwnerOfIndex returns the PE owning the element of a whose last-dimension
// index is k.
func OwnerOfIndex(a *ir.Array, numPE int, k int64) int {
	return OwnerOfIteration(0, SlabExtent(a)-1, numPE, k)
}

// OwnerOfOffset returns the PE owning the element at linear offset off
// (words from a.Base). Block distribution along the last dimension of a
// column-major array makes slabs contiguous, so this is a division.
func OwnerOfOffset(a *ir.Array, numPE int, off int64) int {
	if a.Dist != ir.DistBlock || !a.Shared {
		return 0
	}
	stride := a.DimStride(a.Rank() - 1)
	return OwnerOfIndex(a, numPE, off/stride)
}

// OwnerDivisor returns the words in one PE's slab of a block-distributed
// shared array, DimStride(last) × ceil(extent/numPE), or 0 when PE 0 owns
// the whole array (private or non-block arrays, empty extents). For every
// in-array offset off, OwnerOfOffset is min(off/div, numPE-1), because
// ⌊⌊off/stride⌋/size⌋ = ⌊off/(stride·size)⌋: the runtime resolves a word's
// home with one division instead of re-deriving the slab geometry.
func OwnerDivisor(a *ir.Array, numPE int) int64 {
	if a.Dist != ir.DistBlock || !a.Shared {
		return 0
	}
	n := SlabExtent(a)
	if n <= 0 {
		return 0
	}
	size := (n + int64(numPE) - 1) / int64(numPE)
	return a.DimStride(a.Rank()-1) * size
}

// OwnedWords returns the word range [lo,hi] (offsets from a.Base) stored in
// PE pe's local memory; empty chunk if pe owns nothing.
func OwnedWords(a *ir.Array, numPE, pe int) Chunk {
	slab := OwnerSlab(a, numPE, pe)
	if slab.Empty() {
		return slab
	}
	stride := a.DimStride(a.Rank() - 1)
	return Chunk{Lo: slab.Lo * stride, Hi: (slab.Hi+1)*stride - 1}
}
