package main

import "sort"

// tailPermilles are the candidate tail percentiles, in tenths of a
// percent, highest first.
var tailPermilles = []int{999, 990, 950, 900, 750, 500}

// rank returns the 1-based nearest rank of the permille-th percentile
// of n samples, in integer arithmetic so that 990‰ of 1000 is exactly
// rank 990.
func rank(n, permille int) int {
	r := (n*permille + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the permille-th percentile of sorted by nearest
// rank, or 0 for no samples.
func percentile(sorted []float64, permille int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), permille)-1]
}

// tailPermille returns the highest candidate percentile that leaves at
// least ten of n samples above it, or 0 when n is too small for any.
// A tail read from fewer samples than that is one or two outliers.
func tailPermille(n int) int {
	for _, p := range tailPermilles {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the midpoint of xs, averaging the middle pair for an even
// count (Python's statistics.median).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles of xs the way
// Python's statistics.quantiles(xs, n=4) does (the "exclusive"
// method), so spreads computed here match the ones the acceptance
// rule computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
