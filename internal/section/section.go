// Package section implements bounded regular array sections: finite unions
// of N-dimensional integer rectangles. Sections summarize the region of an
// array read or written by an epoch task, and the stale-reference analysis
// is a dataflow over them.
//
// Soundness contract: the stale analysis needs read/write summaries that
// OVER-approximate the true access sets, except when a set is subtracted
// (killed), where the subtrahend must be exact. A Set therefore carries an
// "approx" bit: widening (to bound the rectangle count) sets it, and
// Subtract with an approximate subtrahend conservatively returns the minuend
// unchanged.
package section

import (
	"fmt"
	"sort"
	"strings"
)

// Rect is an N-dimensional rectangle with inclusive bounds Lo[d]..Hi[d].
// A Rect with any Lo[d] > Hi[d] is empty.
type Rect struct {
	Lo, Hi []int64
}

// NewRect builds a rectangle from parallel lo/hi slices.
func NewRect(lo, hi []int64) Rect {
	if len(lo) != len(hi) {
		panic("section: rank mismatch in NewRect")
	}
	l := make([]int64, len(lo))
	h := make([]int64, len(hi))
	copy(l, lo)
	copy(h, hi)
	return Rect{Lo: l, Hi: h}
}

// Rank returns the dimensionality of the rectangle.
func (r Rect) Rank() int { return len(r.Lo) }

// Empty reports whether the rectangle contains no points.
func (r Rect) Empty() bool {
	for d := range r.Lo {
		if r.Lo[d] > r.Hi[d] {
			return true
		}
	}
	return false
}

// Contains reports whether point p lies inside r.
func (r Rect) Contains(p []int64) bool {
	if len(p) != len(r.Lo) {
		return false
	}
	for d := range p {
		if p[d] < r.Lo[d] || p[d] > r.Hi[d] {
			return false
		}
	}
	return true
}

// Intersect returns the rectangle intersection of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{Lo: make([]int64, r.Rank()), Hi: make([]int64, r.Rank())}
	for d := range r.Lo {
		out.Lo[d] = max64(r.Lo[d], s.Lo[d])
		out.Hi[d] = min64(r.Hi[d], s.Hi[d])
	}
	return out
}

// Overlaps reports whether r and s share at least one point.
func (r Rect) Overlaps(s Rect) bool { return !r.Intersect(s).Empty() }

// ContainsRect reports whether s is entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	for d := range r.Lo {
		if s.Lo[d] < r.Lo[d] || s.Hi[d] > r.Hi[d] {
			return false
		}
	}
	return true
}

// Size returns the number of points in r.
func (r Rect) Size() int64 {
	if r.Empty() {
		return 0
	}
	n := int64(1)
	for d := range r.Lo {
		n *= r.Hi[d] - r.Lo[d] + 1
	}
	return n
}

// subtract returns r − s as a list of disjoint rectangles (slab
// decomposition: peel one dimension at a time).
func (r Rect) subtract(s Rect) []Rect {
	is := r.Intersect(s)
	if is.Empty() {
		if r.Empty() {
			return nil
		}
		return []Rect{r}
	}
	var out []Rect
	cur := r
	for d := 0; d < r.Rank(); d++ {
		if cur.Lo[d] < is.Lo[d] {
			left := NewRect(cur.Lo, cur.Hi)
			left.Hi[d] = is.Lo[d] - 1
			out = append(out, left)
		}
		if cur.Hi[d] > is.Hi[d] {
			right := NewRect(cur.Lo, cur.Hi)
			right.Lo[d] = is.Hi[d] + 1
			out = append(out, right)
		}
		cur = NewRect(cur.Lo, cur.Hi)
		cur.Lo[d] = is.Lo[d]
		cur.Hi[d] = is.Hi[d]
	}
	return out
}

func (r Rect) String() string {
	parts := make([]string, r.Rank())
	for d := range r.Lo {
		if r.Lo[d] == r.Hi[d] {
			parts[d] = fmt.Sprintf("%d", r.Lo[d])
		} else {
			parts[d] = fmt.Sprintf("%d:%d", r.Lo[d], r.Hi[d])
		}
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// MaxRects bounds the number of rectangles a Set may hold before it is
// widened to its bounding box (and marked approximate).
const MaxRects = 48

// Set is a union of same-rank rectangles, possibly marked approximate.
type Set struct {
	rank   int
	rects  []Rect
	approx bool
}

// Empty returns the empty set of the given rank.
func Empty(rank int) Set { return Set{rank: rank} }

// Of builds a set from rectangles (all must share the given rank).
func Of(rank int, rects ...Rect) Set {
	s := Empty(rank)
	for _, r := range rects {
		s = s.UnionRect(r)
	}
	return s
}

// Rank returns the dimensionality of the set's rectangles.
func (s Set) Rank() int { return s.rank }

// IsEmpty reports whether the set contains no points.
func (s Set) IsEmpty() bool { return len(s.rects) == 0 }

// Approx reports whether the set has been widened and over-approximates.
func (s Set) Approx() bool { return s.approx }

// Rects returns a copy of the rectangles in the set.
func (s Set) Rects() []Rect {
	out := make([]Rect, len(s.rects))
	copy(out, s.rects)
	return out
}

// Contains reports whether point p is in the set.
func (s Set) Contains(p []int64) bool {
	for _, r := range s.rects {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

// mergeWith returns the exact union of r and q as a single rectangle when
// they agree on all dimensions but one, along which they overlap or touch
// (e.g. adjacent distribution slabs).
func (r Rect) mergeWith(q Rect) (Rect, bool) {
	diff := -1
	for d := range r.Lo {
		if r.Lo[d] != q.Lo[d] || r.Hi[d] != q.Hi[d] {
			if diff >= 0 {
				return Rect{}, false
			}
			diff = d
		}
	}
	if diff < 0 {
		return r, true // identical
	}
	// Overlapping or adjacent along diff?
	if r.Lo[diff] > q.Hi[diff]+1 || q.Lo[diff] > r.Hi[diff]+1 {
		return Rect{}, false
	}
	m := NewRect(r.Lo, r.Hi)
	m.Lo[diff] = min64(r.Lo[diff], q.Lo[diff])
	m.Hi[diff] = max64(r.Hi[diff], q.Hi[diff])
	return m, true
}

// UnionRect returns s ∪ {r}.
func (s Set) UnionRect(r Rect) Set {
	if r.Rank() != s.rank {
		panic(fmt.Sprintf("section: rank mismatch %d vs %d", r.Rank(), s.rank))
	}
	if r.Empty() {
		return s
	}
	// Absorb if already covered; replace covered rects; coalesce with any
	// rect that differs only along one dimension (adjacent slabs merge
	// exactly, which keeps "every PE but p" unions small and precise).
	out := Set{rank: s.rank, approx: s.approx}
	add := r
	for _, q := range s.rects {
		if q.ContainsRect(add) {
			return s
		}
		if add.ContainsRect(q) {
			continue
		}
		if m, ok := add.mergeWith(q); ok {
			add = m
			continue
		}
		out.rects = append(out.rects, q)
	}
	// The grown rectangle may now cover or merge with earlier survivors.
	for changed := true; changed; {
		changed = false
		kept := out.rects[:0]
		for _, q := range out.rects {
			if add.ContainsRect(q) {
				changed = true
				continue
			}
			if m, ok := add.mergeWith(q); ok {
				add = m
				changed = true
				continue
			}
			kept = append(kept, q)
		}
		out.rects = kept
	}
	out.rects = append(out.rects, add)
	return out.widenIfNeeded()
}

// Union returns s ∪ t. The union of an exact empty set with t is t itself:
// rebuilding t's rectangles one by one would reproduce them in order.
func (s Set) Union(t Set) Set {
	if len(s.rects) == 0 && !s.approx {
		return t
	}
	out := s
	out.approx = s.approx || t.approx
	for _, r := range t.rects {
		out = out.UnionRect(r)
	}
	out.approx = out.approx || s.approx || t.approx
	return out
}

// Intersect returns s ∩ t. The result is approximate if either input is.
func (s Set) Intersect(t Set) Set {
	out := Set{rank: s.rank, approx: s.approx || t.approx}
	for _, a := range s.rects {
		for _, b := range t.rects {
			is := a.Intersect(b)
			if !is.Empty() {
				out = out.UnionRect(is)
			}
		}
	}
	out.approx = s.approx || t.approx
	return out
}

// Overlaps reports whether s and t share at least one point.
func (s Set) Overlaps(t Set) bool {
	for _, a := range s.rects {
		for _, b := range t.rects {
			if a.Overlaps(b) {
				return true
			}
		}
	}
	return false
}

// Subtract returns s − t. If t is approximate the subtraction would be
// unsound (t over-approximates the kill set), so s is returned unchanged.
func (s Set) Subtract(t Set) Set {
	if t.approx {
		return s
	}
	cur := s.rects
	for _, b := range t.rects {
		var next []Rect
		for _, a := range cur {
			next = append(next, a.subtract(b)...)
		}
		cur = next
	}
	out := Set{rank: s.rank, approx: s.approx}
	for _, r := range cur {
		out = out.UnionRect(r)
	}
	out.approx = s.approx || out.approx
	return out
}

// BoundingBox returns the smallest rectangle containing the set; empty=false
// when the set is empty.
func (s Set) BoundingBox() (Rect, bool) {
	if s.IsEmpty() {
		return Rect{}, false
	}
	bb := NewRect(s.rects[0].Lo, s.rects[0].Hi)
	for _, r := range s.rects[1:] {
		for d := 0; d < s.rank; d++ {
			bb.Lo[d] = min64(bb.Lo[d], r.Lo[d])
			bb.Hi[d] = max64(bb.Hi[d], r.Hi[d])
		}
	}
	return bb, true
}

// Size returns the exact number of points in the set (inclusion–exclusion
// via disjointification; intended for tests and small sets).
func (s Set) Size() int64 {
	var disjoint []Rect
	for _, r := range s.rects {
		frags := []Rect{r}
		for _, d := range disjoint {
			var next []Rect
			for _, f := range frags {
				next = append(next, f.subtract(d)...)
			}
			frags = next
		}
		disjoint = append(disjoint, frags...)
	}
	var n int64
	for _, r := range disjoint {
		n += r.Size()
	}
	return n
}

// ContainsSet reports whether every point of t lies in s.
func (s Set) ContainsSet(t Set) bool {
	for _, b := range t.rects {
		rem := []Rect{b}
		for _, a := range s.rects {
			var next []Rect
			for _, f := range rem {
				next = append(next, f.subtract(a)...)
			}
			rem = next
			if len(rem) == 0 {
				break
			}
		}
		if len(rem) != 0 {
			return false
		}
	}
	return true
}

// EqualPoints reports whether s and t denote the same point set.
func (s Set) EqualPoints(t Set) bool {
	return s.ContainsSet(t) && t.ContainsSet(s)
}

// widenIfNeeded collapses the set to its bounding box when it holds more
// than MaxRects rectangles, marking it approximate.
func (s Set) widenIfNeeded() Set {
	if len(s.rects) <= MaxRects {
		return s
	}
	bb, _ := s.BoundingBox()
	return Set{rank: s.rank, rects: []Rect{bb}, approx: true}
}

// Widen explicitly collapses the set to its bounding box, marking it
// approximate (used by the dataflow to force convergence).
func (s Set) Widen() Set {
	bb, ok := s.BoundingBox()
	if !ok {
		return s
	}
	return Set{rank: s.rank, rects: []Rect{bb}, approx: true}
}

func (s Set) String() string {
	if s.IsEmpty() {
		return "∅"
	}
	parts := make([]string, len(s.rects))
	rects := s.Rects()
	sort.Slice(rects, func(i, j int) bool { return rects[i].String() < rects[j].String() })
	for i, r := range rects {
		parts[i] = r.String()
	}
	suffix := ""
	if s.approx {
		suffix = "~"
	}
	return strings.Join(parts, " ∪ ") + suffix
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
