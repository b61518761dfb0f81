package main

import (
	"math"
	"sort"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100): the
// smallest sample with at least p% of the samples at or below it. It is
// NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

// median is the middle sample, or the mean of the two middle samples for
// an even count; NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" one),
// which is how run-to-run spreads of the end-to-end metrics are judged.
// One sample is both quartiles; no samples gives NaN.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// geomean is the geometric mean of positive samples; NaN when there are
// none or any is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// summary describes a sample set the way result.json reports timings.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sortedCopy(xs)
	q1, q3 := quartiles(s)
	return summary{N: len(s), Min: s[0], Q1: q1, Median: median(s), Q3: q3, Max: s[len(s)-1]}
}

// selfTimes returns each span's self time in nanoseconds, in spans order:
// its duration minus the length of the union of its children's intervals,
// clipped to the span. Taking the union matters when children overlap —
// two workers running under one parent — so overlapping time is
// subtracted once, never twice.
func selfTimes(spans []span) []int64 {
	index := make(map[int64]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	type ival struct{ lo, hi int64 }
	children := make([][]ival, len(spans))
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], ival{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		cs := children[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].lo < cs[b].lo })
		covered, curLo, curHi := int64(0), int64(0), int64(-1)
		flush := func() {
			if curHi > curLo {
				covered += curHi - curLo
			}
		}
		for _, c := range cs {
			lo, hi := max(c.lo, s.Start), min(c.hi, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				flush()
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		flush()
		out[i] = (s.End - s.Start) - covered
	}
	return out
}
