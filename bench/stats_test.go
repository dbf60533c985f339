package main

import "testing"

// TestTailPermille pins the rule for the reported tail: the highest
// candidate percentile with at least ten samples beyond it.
func TestTailPermille(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{19, 0},     // not even a median has ten samples above it
		{20, 500},   // p50
		{39, 500},   // p75 would leave 9
		{40, 750},   // p75 leaves exactly 10
		{1000, 990}, // p99 leaves exactly 10
		{1999, 990},
		{6000, 990},  // p99.9 would leave 6
		{10000, 999}, // p99.9 leaves exactly 10
	} {
		if got := tailPermille(c.n); got != c.want {
			t.Errorf("tailPermille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		permille int
		want     float64
	}{{500, 500}, {990, 990}, {999, 999}, {1000, 1000}, {1, 1}} {
		if got := percentile(xs, c.permille); got != c.want {
			t.Errorf("percentile(1..1000, %d‰) = %v, want %v", c.permille, got, c.want)
		}
	}
	if got := percentile(nil, 500); got != 0 {
		t.Errorf("percentile of no samples = %v", got)
	}
}

// TestQuartilesMatchPython pins quartiles and median to Python's
// statistics.quantiles(xs, n=4) and statistics.median, which the
// acceptance rule for spreads uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // extrapolates, as Python does
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 || median(c.xs) != c.med {
			t.Errorf("%v: quartiles %v, %v, median %v; want %v, %v, %v",
				c.xs, q1, q3, median(c.xs), c.q1, c.q3, c.med)
		}
	}
}
