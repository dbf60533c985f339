package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownValues(t *testing.T) {
	// The paper's Table III braking distances.
	xs := []float64{0.43, 0.37, 0.31, 0.42, 0.31, 0.36, 0.36}
	s := Summarize(xs)
	if s.N != 7 {
		t.Fatal("N")
	}
	if math.Abs(s.Mean-0.365714) > 1e-5 {
		t.Fatalf("mean %v", s.Mean)
	}
	// The paper reports variance 0.0022 (population, rounded).
	if math.Abs(s.Variance-0.0022) > 3e-4 {
		t.Fatalf("variance %v, want ~0.0022 like the paper", s.Variance)
	}
	if s.Min != 0.31 || s.Max != 0.43 {
		t.Fatalf("min/max %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatal("empty summary")
	}
}

func TestEDFPropertyMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEDF(raw)
		if !sort.Float64sAreSorted(e.X) {
			return false
		}
		for i := 1; i < len(e.F); i++ {
			if e.F[i] < e.F[i-1] {
				return false
			}
		}
		return e.F[len(e.F)-1] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func TestEDFDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	NewEDF(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Fatal("input mutated")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if Percentile(xs, 50) != 5 {
		t.Fatalf("p50=%v", Percentile(xs, 50))
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 10 {
		t.Fatal("extremes")
	}
	if Percentile(xs, 90) != 9 {
		t.Fatalf("p90=%v", Percentile(xs, 90))
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile")
	}
}

func TestFitNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = 10 + 2*rng.NormFloat64()
	}
	f := FitNormal(xs)
	if math.Abs(f.Mu-10) > 0.2 || math.Abs(f.Sigma-2) > 0.2 {
		t.Fatalf("fit mu=%v sigma=%v", f.Mu, f.Sigma)
	}
	if c := f.CDF(f.Mu); math.Abs(c-0.5) > 1e-9 {
		t.Fatalf("CDF at mean %v", c)
	}
	if f.CDF(30) < 0.999 || f.CDF(-10) > 0.001 {
		t.Fatal("CDF tails")
	}
	// KS distance for the generating distribution must be small.
	if ks := KolmogorovSmirnov(xs, f.CDF); ks > 0.05 {
		t.Fatalf("KS=%v for the true model", ks)
	}
}

func TestFitNormalDegenerate(t *testing.T) {
	f := FitNormal([]float64{5, 5, 5})
	if f.Sigma != 0 {
		t.Fatal("sigma")
	}
	if f.CDF(4.9) != 0 || f.CDF(5.1) != 1 {
		t.Fatal("degenerate CDF")
	}
}

func TestFitGammaMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Gamma(k=4, θ=2): mean 8, variance 16. Sample via sum of four
	// exponentials.
	xs := make([]float64, 8000)
	for i := range xs {
		var s float64
		for j := 0; j < 4; j++ {
			s += rng.ExpFloat64() * 2
		}
		xs[i] = s
	}
	g := FitGamma(xs)
	if math.Abs(g.Shape-4) > 0.4 || math.Abs(g.Scale-2) > 0.2 {
		t.Fatalf("gamma fit k=%v theta=%v", g.Shape, g.Scale)
	}
}

func TestFitGammaInvalid(t *testing.T) {
	if g := FitGamma([]float64{-1, -2}); g.Shape != 0 {
		t.Fatal("negative-mean sample fitted")
	}
}

func TestKolmogorovSmirnovDetectsMismatch(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	// A CDF that is always 0 is maximally wrong.
	if ks := KolmogorovSmirnov(xs, func(float64) float64 { return 0 }); ks < 0.99 {
		t.Fatalf("KS=%v for a degenerate model", ks)
	}
}

func TestFormatEDF(t *testing.T) {
	out := FormatEDF(NewEDF([]float64{44, 71}), "ms")
	if out == "" {
		t.Fatal("empty format")
	}
}

func TestKolmogorovSmirnovTiedSamples(t *testing.T) {
	// xs = {1,1,1,2} against U(0,2): the EDF jumps 0 -> 0.75 at x=1
	// (cdf 0.5) and 0.75 -> 1 at x=2 (cdf 1.0). Hand-computed D:
	// max(|0.5-0|, |0.75-0.5|, |1.0-0.75|, |1.0-1.0|) = 0.5.
	uniform := func(x float64) float64 {
		switch {
		case x <= 0:
			return 0
		case x >= 2:
			return 1
		default:
			return x / 2
		}
	}
	got := KolmogorovSmirnov([]float64{1, 1, 1, 2}, uniform)
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("KS=%v, want 0.5", got)
	}
}

func TestKolmogorovSmirnovPerfectFit(t *testing.T) {
	// The EDF of n equally spaced uniform quantiles deviates from the
	// true uniform CDF by exactly 1/n.
	n := 10
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = (float64(i) + 0.5) / float64(n)
	}
	ks := KolmogorovSmirnov(xs, func(x float64) float64 {
		return math.Min(1, math.Max(0, x))
	})
	want := 1.0 / float64(n) * 1.5 // 0.15: |F - cdf| peaks at 0.05+0.10
	if ks > want+1e-12 {
		t.Fatalf("KS=%v for a well-matched sample, want <= %v", ks, want)
	}
}

// Table-driven edge cases for the KS statistic against a fixed uniform
// [0,1] CDF.
func TestKolmogorovSmirnovEdgeCases(t *testing.T) {
	uniform := func(x float64) float64 {
		switch {
		case x < 0:
			return 0
		case x > 1:
			return 1
		default:
			return x
		}
	}
	cases := []struct {
		name   string
		sample []float64
		want   float64
	}{
		// No sample: no deviation to measure.
		{"empty", nil, 0},
		// One point at 0.25: EDF jumps 0→1 there, so D is the larger of
		// |0.25-0| and |1-0.25|.
		{"single point", []float64{0.25}, 0.75},
		// Median point: both sides deviate by exactly 0.5.
		{"single median point", []float64{0.5}, 0.5},
		// Four copies of 0.5: the EDF is one 0→1 jump at 0.5, identical
		// to the single-point case — per-element ranks must not inflate D.
		{"all ties", []float64{0.5, 0.5, 0.5, 0.5}, 0.5},
		// Perfectly spaced quartile points: classic minimal-D placement.
		{"quartiles", []float64{0.125, 0.375, 0.625, 0.875}, 0.125},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := KolmogorovSmirnov(tc.sample, uniform)
			if math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("D = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestPercentileEmptyIsNaN(t *testing.T) {
	if got := Percentile(nil, 50); !math.IsNaN(got) {
		t.Fatalf("Percentile(nil) = %v, want NaN", got)
	}
}
