package experiments

import (
	"fmt"
	"strings"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/core"
	"itsbed/internal/stats"
)

// ABL-4: the paper synchronises every platform with NTP "to reliably
// collect timestamps". This sweep quantifies how much of Table II's
// smallest interval (RSU send → OBU receive, ~1.6 ms true) is
// measurement artefact at different synchronisation qualities: with
// poor sync the measured interval scatters and can even go negative.

// NTPSweepRow is one synchronisation quality's outcome.
type NTPSweepRow struct {
	Name string
	// Measured summarises the apparent send→receive interval (ms).
	Measured stats.Summary
	// NegativeRuns counts runs whose measured radio interval was
	// negative — physically impossible, purely a clock artefact.
	NegativeRuns int
	Runs         int
}

// NTPQualitySweep runs the scenario under different clock-error
// models. workers bounds the total number of concurrent scenario runs
// across the sweep (<= 0 selects runtime.NumCPU()).
func NTPQualitySweep(baseSeed int64, runs, workers int) ([]NTPSweepRow, error) {
	if runs <= 0 {
		runs = 20
	}
	type variant struct {
		name  string
		model clock.NTPModel
	}
	variants := []variant{
		{"perfect", clock.PerfectNTP()},
		{"LAN NTP (paper)", clock.DefaultLANNTP()},
		{"WAN NTP", clock.NTPModel{
			OffsetStdDev:   5 * time.Millisecond,
			JitterStdDev:   500 * time.Microsecond,
			DriftPPM:       20,
			ResyncInterval: 64 * time.Second,
		}},
		{"unsynchronised", clock.NTPModel{
			OffsetStdDev: 50 * time.Millisecond,
			JitterStdDev: time.Millisecond,
			DriftPPM:     50,
		}},
	}
	return sweep(ScenarioOptions{BaseSeed: baseSeed, Runs: runs, Workers: workers}, 10000, variants,
		func(v variant, opt ScenarioOptions) (NTPSweepRow, error) {
			opt.Configure = func(c *core.Config) { c.NTP = v.model }
			collected, err := collectRuns(opt, runs, complete)
			if err != nil {
				return NTPSweepRow{}, fmt.Errorf("experiments: NTP sweep %q: %w", v.name, err)
			}
			row := NTPSweepRow{Name: v.name, Runs: runs}
			var xs []float64
			for _, r := range collected {
				m := ms(r.Intervals.SendToReceive)
				xs = append(xs, m)
				if m < 0 {
					row.NegativeRuns++
				}
			}
			row.Measured = stats.Summarize(xs)
			return row, nil
		})
}

// FormatNTPSweep renders the sweep.
func FormatNTPSweep(rows []NTPSweepRow) string {
	var b strings.Builder
	b.WriteString("ABL-4: clock-sync quality vs measured RSU->OBU interval (true ~1.3 ms)\n")
	fmt.Fprintf(&b, "  %-18s %10s %10s %10s %10s\n", "sync", "mean (ms)", "stddev", "min", "negative")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-18s %10.2f %10.2f %10.2f %7d/%d\n",
			r.Name, r.Measured.Mean, r.Measured.StdDev, r.Measured.Min, r.NegativeRuns, r.Runs)
	}
	b.WriteString("Shape: the paper's cross-host intervals are only as good as NTP; poor\n")
	b.WriteString("sync scatters the small radio term and produces impossible negatives.\n")
	return b.String()
}
