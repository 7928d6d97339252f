package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of an ascending series by
// the nearest-rank rule: the smallest value with at least q of the samples
// at or below it. NaN for an empty series.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the median of values (the mean of the middle two for an
// even count) without reordering them. NaN for none.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of values by the method
// of Python's statistics.quantiles(values, n=4) — exclusive, interpolating
// at positions (n+1)/4 and 3(n+1)/4 — which is what the driver uses to
// judge the benchmark's spread.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// minOf returns the smallest of values, +Inf for none.
func minOf(values []float64) float64 {
	m := math.Inf(1)
	for _, v := range values {
		m = math.Min(m, v)
	}
	return m
}

// maxOf returns the largest of values, -Inf for none.
func maxOf(values []float64) float64 {
	m := math.Inf(-1)
	for _, v := range values {
		m = math.Max(m, v)
	}
	return m
}
