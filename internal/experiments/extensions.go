package experiments

import (
	"fmt"
	"math"
	"strings"

	"itsbed/internal/core"
	"itsbed/internal/radio"
	"itsbed/internal/stats"
)

// CDFResult is the large-N latency study the paper lists as future
// work ("more measurements to produce a more comprehensive CDF of
// end-to-end latency, and possibly model it with an appropriate
// distribution").
type CDFResult struct {
	// TotalsMS are the end-to-end (step 2→5) delays in milliseconds.
	TotalsMS []float64
	Summary  stats.Summary
	EDF      stats.EDF
	// Normal and Gamma are the candidate parametric fits with their
	// Kolmogorov–Smirnov distances.
	Normal   stats.NormalFit
	NormalKS float64
	Gamma    stats.GammaFit
	GammaKS  float64
}

// LatencyCDF runs the emergency-brake scenario n times (ground-truth
// line follower for speed) and fits candidate distributions to the
// end-to-end delay. workers bounds the concurrent runs (<= 0 selects
// runtime.NumCPU()).
func LatencyCDF(baseSeed int64, n, workers int) (CDFResult, error) {
	if n <= 0 {
		n = 200
	}
	opt := ScenarioOptions{BaseSeed: baseSeed, Runs: n, UseVision: false, Workers: workers}.withDefaults()
	runs, err := collectRuns(opt, n, complete)
	if err != nil {
		return CDFResult{}, err
	}
	var out CDFResult
	for _, r := range runs {
		out.TotalsMS = append(out.TotalsMS, ms(r.Intervals.Total))
	}
	out.Summary = stats.Summarize(out.TotalsMS)
	out.EDF = stats.NewEDF(out.TotalsMS)
	out.Normal = stats.FitNormal(out.TotalsMS)
	out.NormalKS = stats.KolmogorovSmirnov(out.TotalsMS, out.Normal.CDF)
	out.Gamma = stats.FitGamma(out.TotalsMS)
	// The Gamma CDF needs the regularised incomplete gamma function;
	// approximate via simulation-free numeric integration of the pdf.
	out.GammaKS = stats.KolmogorovSmirnov(out.TotalsMS, gammaCDF(out.Gamma))
	return out, nil
}

// gammaCDF numerically integrates the Gamma pdf (trapezoid rule).
func gammaCDF(g stats.GammaFit) func(float64) float64 {
	if g.Shape <= 0 || g.Scale <= 0 {
		return func(float64) float64 { return 0 }
	}
	return func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		const steps = 400
		h := x / steps
		var acc float64
		pdf := func(t float64) float64 {
			if t <= 0 {
				return 0
			}
			return gammaPDF(t, g.Shape, g.Scale)
		}
		for i := 0; i < steps; i++ {
			a, b := float64(i)*h, float64(i+1)*h
			acc += (pdf(a) + pdf(b)) / 2 * h
		}
		if acc > 1 {
			acc = 1
		}
		return acc
	}
}

func gammaPDF(x, k, theta float64) float64 {
	lg, _ := math.Lgamma(k)
	return math.Exp((k-1)*math.Log(x) - x/theta - k*math.Log(theta) - lg)
}

// Format renders the study.
func (c CDFResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXT-1: End-to-end latency CDF over %d runs (future-work study)\n", c.Summary.N)
	fmt.Fprintf(&b, "  mean %.1f ms, stddev %.1f ms, min %.1f ms, max %.1f ms\n",
		c.Summary.Mean, c.Summary.StdDev, c.Summary.Min, c.Summary.Max)
	for _, p := range []float64{10, 25, 50, 75, 90, 99} {
		fmt.Fprintf(&b, "  p%-3.0f %.1f ms\n", p, stats.Percentile(c.TotalsMS, p))
	}
	fmt.Fprintf(&b, "  fits: Normal(mu=%.1f, sigma=%.1f) KS=%.3f; Gamma(k=%.1f, theta=%.2f) KS=%.3f\n",
		c.Normal.Mu, c.Normal.Sigma, c.NormalKS, c.Gamma.Shape, c.Gamma.Scale, c.GammaKS)
	best := "Normal"
	if c.GammaKS < c.NormalKS {
		best = "Gamma"
	}
	fmt.Fprintf(&b, "  better fit: %s\n", best)
	return b.String()
}

// RadioRow is one interface's detection-to-action statistics.
type RadioRow struct {
	Name     string
	Runs     int
	TotalsMS []float64
	Summary  stats.Summary
	// SendToReceiveMS is the mean radio-link contribution.
	SendToReceiveMS float64
}

// RadioComparisonResult compares ITS-G5 against cellular profiles on
// the same scenario (the paper's planned 5G-module comparison).
type RadioComparisonResult struct {
	Rows []RadioRow
}

// RadioComparison runs the scenario over each interface. workers
// bounds the concurrent scenario runs across all variant rows (<= 0
// selects runtime.NumCPU()).
func RadioComparison(baseSeed int64, runs, workers int) (RadioComparisonResult, error) {
	if runs <= 0 {
		runs = 30
	}
	type variant struct {
		name string
		conf func(*core.Config)
	}
	variants := []variant{
		{"ITS-G5 (802.11p)", func(c *core.Config) { c.Radio = core.RadioITSG5 }},
		{"5G URLLC edge", func(c *core.Config) {
			c.Radio = core.RadioCV2XUu
			c.CellularProfile = radio.Profile5GURLLC()
		}},
		{"5G eMBB public", func(c *core.Config) {
			c.Radio = core.RadioCV2XUu
			c.CellularProfile = radio.Profile5GEMBB()
		}},
		{"LTE public", func(c *core.Config) {
			c.Radio = core.RadioCV2XUu
			c.CellularProfile = radio.ProfileLTE()
		}},
	}
	rows, err := sweep(ScenarioOptions{BaseSeed: baseSeed, Runs: runs, Workers: workers}, 100000, variants,
		func(v variant, opt ScenarioOptions) (RadioRow, error) {
			opt.Configure = v.conf
			collected, err := collectRuns(opt, runs, complete)
			if err != nil {
				return RadioRow{}, fmt.Errorf("experiments: radio %q: %w", v.name, err)
			}
			row := RadioRow{Name: v.name, Runs: runs}
			var linkSum float64
			for _, r := range collected {
				row.TotalsMS = append(row.TotalsMS, ms(r.Intervals.Total))
				linkSum += ms(r.Intervals.SendToReceive)
			}
			row.Summary = stats.Summarize(row.TotalsMS)
			row.SendToReceiveMS = linkSum / float64(len(collected))
			return row, nil
		})
	if err != nil {
		return RadioComparisonResult{}, err
	}
	return RadioComparisonResult{Rows: rows}, nil
}

// Format renders the comparison.
func (r RadioComparisonResult) Format() string {
	var b strings.Builder
	b.WriteString("EXT-2: Detection-to-action delay per interface (future-work comparison)\n")
	fmt.Fprintf(&b, "  %-18s %6s %10s %10s %10s %12s\n", "interface", "runs", "mean (ms)", "p90 (ms)", "max (ms)", "link avg(ms)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-18s %6d %10.1f %10.1f %10.1f %12.2f\n",
			row.Name, row.Runs, row.Summary.Mean,
			stats.Percentile(row.TotalsMS, 90), row.Summary.Max, row.SendToReceiveMS)
	}
	b.WriteString("Shape: the radio link is a minor term for ITS-G5 and URLLC; public\n")
	b.WriteString("cellular latency dominates the budget and can breach the 100 ms bound.\n")
	return b.String()
}
