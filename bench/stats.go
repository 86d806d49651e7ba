package main

import "slices"

// percentile returns the nearest-rank p-quantile (0 <= p <= 1) of an
// ascending-sorted sample.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

func sortedCopy(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// medianNS is the median of an unsorted latency sample, in nanoseconds.
func medianNS(xs []int64) int64 { return percentile(sortedCopy(xs), 0.5) }

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// quartiles returns (q1, median, q3) the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is how
// the acceptance spread is defined. Fewer than two values yield the value
// itself three times.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}
