package main

import (
	"math"
	"slices"
	"testing"
)

func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b)) || math.Abs(a-b) < 1e-12
}

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 10, 1},
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 91, 10},
		{ten, 99, 10},
		{ten, 100, 10},
		{ten, 0, 1},
		{[]float64{42}, 99, 42},
		{nil, 50, math.NaN()},
	} {
		if got := percentile(tc.xs, tc.p); !sameFloat(got, tc.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	if !slices.Equal(ten, []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}) {
		t.Errorf("percentile reordered its input: %v", ten)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	// The quartiles are the values Python's statistics.quantiles(xs, n=4)
	// returns for the same samples.
	for _, tc := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{2.5, 9, 1, 7, 7}, 7, 1.75, 8},
		{[]float64{4}, 4, 4, 4},
		{nil, math.NaN(), math.NaN(), math.NaN()},
	} {
		q1, q3 := quartiles(tc.xs)
		if med := median(tc.xs); !sameFloat(med, tc.med) || !sameFloat(q1, tc.q1) || !sameFloat(q3, tc.q3) {
			t.Errorf("%v: median %v, quartiles %v %v; want %v, %v %v", tc.xs, med, q1, q3, tc.med, tc.q1, tc.q3)
		}
	}
}

func TestGeomean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 4}, 2},
		{[]float64{2, 8, 4}, 4},
		{[]float64{0.5}, 0.5},
		{[]float64{1, 0}, math.NaN()},
		{[]float64{1, -1}, math.NaN()},
		{nil, math.NaN()},
	} {
		if got := geomean(tc.xs); !sameFloat(got, tc.want) {
			t.Errorf("geomean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spans []span
		want  []int64
	}{
		{"leaf", []span{{ID: 1, Start: 0, End: 10}}, []int64{10}},
		{"one child", []span{
			{ID: 1, Start: 0, End: 10},
			{ID: 2, Parent: 1, Start: 2, End: 5},
		}, []int64{7, 3}},
		{"disjoint children", []span{
			{ID: 1, Start: 0, End: 10},
			{ID: 2, Parent: 1, Start: 1, End: 3},
			{ID: 3, Parent: 1, Start: 6, End: 9},
		}, []int64{5, 2, 3}},
		{"overlapping children of two workers count once", []span{
			{ID: 1, Start: 0, End: 10},
			{ID: 2, Parent: 1, Start: 1, End: 6},
			{ID: 3, Parent: 1, Start: 4, End: 8},
			{ID: 4, Parent: 1, Start: 5, End: 7},
		}, []int64{3, 5, 4, 2}},
		{"child outside the parent is clipped", []span{
			{ID: 1, Start: 5, End: 10},
			{ID: 2, Parent: 1, Start: 3, End: 7},
		}, []int64{3, 4}},
		{"grandchildren count against their parent only", []span{
			{ID: 1, Start: 0, End: 10},
			{ID: 2, Parent: 1, Start: 0, End: 8},
			{ID: 3, Parent: 2, Start: 1, End: 4},
		}, []int64{2, 5, 3}},
		{"spans of other traces are independent", []span{
			{ID: 1, Trace: 1, Start: 0, End: 10},
			{ID: 2, Trace: 2, Start: 0, End: 10},
			{ID: 3, Trace: 2, Parent: 2, Start: 0, End: 10},
		}, []int64{10, 0, 10}},
	} {
		if got := selfTimes(tc.spans); !slices.Equal(got, tc.want) {
			t.Errorf("%s: self times %v, want %v", tc.name, got, tc.want)
		}
	}
}
