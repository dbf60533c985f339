// Package stats provides the small statistics toolkit the evaluation
// needs: summary statistics, empirical distribution functions (the
// paper's Fig. 11), percentiles, histograms, and simple parametric
// fits for the future-work latency modelling.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the moments of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // population variance, as the paper reports
	StdDev   float64
	Min, Max float64
}

// Summarize computes summary statistics. An empty sample yields the
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	s.Variance = sq / float64(len(xs))
	s.StdDev = math.Sqrt(s.Variance)
	return s
}

// EDF is an empirical distribution function: sorted sample values with
// cumulative probabilities.
type EDF struct {
	// X are the sorted sample values.
	X []float64
	// F are the cumulative probabilities F(X[i]) = (i+1)/n.
	F []float64
}

// NewEDF builds the EDF of a sample (copying the input).
func NewEDF(xs []float64) EDF {
	x := make([]float64, len(xs))
	copy(x, xs)
	sort.Float64s(x)
	f := make([]float64, len(x))
	for i := range x {
		f[i] = float64(i+1) / float64(len(x))
	}
	return EDF{X: x, F: f}
}

// Percentile returns the p-th percentile (0..100) by nearest-rank.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	x := make([]float64, len(xs))
	copy(x, xs)
	sort.Float64s(x)
	if p <= 0 {
		return x[0]
	}
	if p >= 100 {
		return x[len(x)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(x)))) - 1
	if rank < 0 {
		rank = 0
	}
	return x[rank]
}

// NormalFit is a Gaussian fitted by moments.
type NormalFit struct {
	Mu, Sigma float64
}

// FitNormal fits a Gaussian to the sample by moments.
func FitNormal(xs []float64) NormalFit {
	s := Summarize(xs)
	return NormalFit{Mu: s.Mean, Sigma: s.StdDev}
}

// CDF evaluates the fitted normal CDF.
func (f NormalFit) CDF(x float64) float64 {
	if f.Sigma == 0 {
		if x < f.Mu {
			return 0
		}
		return 1
	}
	return 0.5 * (1 + math.Erf((x-f.Mu)/(f.Sigma*math.Sqrt2)))
}

// GammaFit is a Gamma distribution fitted by moments (shape k, scale θ).
type GammaFit struct {
	Shape, Scale float64
}

// FitGamma fits a Gamma distribution by moment matching. Requires a
// positive-mean sample; returns zero fit otherwise.
func FitGamma(xs []float64) GammaFit {
	s := Summarize(xs)
	if s.Mean <= 0 || s.Variance <= 0 {
		return GammaFit{}
	}
	return GammaFit{
		Shape: s.Mean * s.Mean / s.Variance,
		Scale: s.Variance / s.Mean,
	}
}

// KolmogorovSmirnov computes the KS statistic between a sample and a
// parametric CDF.
func KolmogorovSmirnov(xs []float64, cdf func(float64) float64) float64 {
	e := NewEDF(xs)
	var d float64
	// Walk tie groups: at a value x repeated over sorted indices i..j,
	// the EDF jumps from F(X[i-1]) (the value before the whole group)
	// to F(X[j]). Using i/n per element would treat intermediate
	// within-group levels as attained, overstating D on tied samples.
	prevF := 0.0
	for i := 0; i < len(e.X); {
		j := i
		for j+1 < len(e.X) && e.X[j+1] == e.X[i] {
			j++
		}
		fx := cdf(e.X[i])
		lo := math.Abs(fx - prevF)
		hi := math.Abs(e.F[j] - fx)
		d = math.Max(d, math.Max(lo, hi))
		prevF = e.F[j]
		i = j + 1
	}
	return d
}

// FormatEDF renders the EDF as aligned text rows "value  F(value)",
// the form the paper plots in Fig. 11.
func FormatEDF(e EDF, unit string) string {
	out := ""
	for i := range e.X {
		out += fmt.Sprintf("%8.2f %-4s  %.3f\n", e.X[i], unit, e.F[i])
	}
	return out
}
