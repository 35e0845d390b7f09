package main

import (
	"math"
	"sort"
)

// tailQuantile is the nearest-rank q-quantile of sorted samples, with the
// number of samples that lie strictly beyond it. A tail percentile is only
// worth reporting when at least ten samples lie beyond it; callers print the
// count next to the value so a reader can check.
func tailQuantile(sorted []float64, q float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > n-1 {
		idx = n - 1
	}
	return sorted[idx], n - 1 - idx
}

// median is the middle value of xs (the mean of the middle two for an even
// count). xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
