package experiments

import (
	"fmt"
	"strings"

	"itsbed/internal/core"
	"itsbed/internal/metrics"
	"itsbed/internal/stats"
)

// BakeoffRow is one backend's Table II chain statistics.
type BakeoffRow struct {
	Backend core.RadioKind
	Runs    int
	// TotalsMS are the per-run 2→5 totals in milliseconds.
	TotalsMS []float64
	Summary  stats.Summary
	// LinkAvgMS is the mean radio-link (3→4) contribution.
	LinkAvgMS float64
	// FramesSent/FramesDelivered are the backend's radio_* frame
	// counters summed over the accepted runs; PDR is their ratio.
	FramesSent, FramesDelivered uint64
	PDR                         float64
}

// BakeoffResult is the BAKEOFF-1 technology comparison: the same
// seeded Table II chain over every radio backend.
type BakeoffResult struct {
	Rows []BakeoffRow
}

// radioFrameCounters sums the backend-agnostic radio_* frame counters
// out of a merged snapshot (every backend reports the same family).
func radioFrameCounters(snap metrics.Snapshot) (sent, delivered uint64) {
	for _, c := range snap.Counters {
		switch c.Name {
		case "radio_frames_sent_total":
			sent += c.Value
		case "radio_frames_delivered_total":
			delivered += c.Value
		}
	}
	return sent, delivered
}

// Bakeoff runs the Table II chain of opt once per radio backend — the
// ROADMAP's technology bake-off — with Runs defaulting to 10. Backend
// bi gets its own seed block BaseSeed+bi*100000 (the ITS-G5 block
// equals a plain Table II campaign over the same seeds) and a share of
// opt.Workers; the result is bit-identical for any Workers value.
// opt.Radio is replaced by each backend in turn, and opt.Metrics and
// opt.Progress are not used.
func Bakeoff(opt ScenarioOptions) (BakeoffResult, error) {
	if opt.Runs <= 0 {
		opt.Runs = 10
	}
	rows, err := sweep(opt, 100000, core.RadioKinds(), func(be core.RadioKind, block ScenarioOptions) (BakeoffRow, error) {
		block.Radio = be
		t2, err := TableII(block)
		if err != nil {
			return BakeoffRow{}, fmt.Errorf("experiments: bakeoff %s: %w", be, err)
		}
		row := BakeoffRow{Backend: be, Runs: len(t2.Rows)}
		row.TotalsMS = t2.Totals()
		row.Summary = stats.Summarize(row.TotalsMS)
		var linkSum float64
		for _, r := range t2.Rows {
			linkSum += ms(r.SendToReceive)
		}
		row.LinkAvgMS = linkSum / float64(len(t2.Rows))
		row.FramesSent, row.FramesDelivered = radioFrameCounters(t2.Metrics)
		if row.FramesSent > 0 {
			row.PDR = float64(row.FramesDelivered) / float64(row.FramesSent)
		}
		return row, nil
	})
	if err != nil {
		return BakeoffResult{}, err
	}
	return BakeoffResult{Rows: rows}, nil
}

// Format renders the per-backend comparison.
func (r BakeoffResult) Format() string {
	var b strings.Builder
	runs := 0
	if len(r.Rows) > 0 {
		runs = r.Rows[0].Runs
	}
	fmt.Fprintf(&b, "BAKEOFF-1: Table II chain per radio backend (%d runs each)\n", runs)
	fmt.Fprintf(&b, "  %-10s %6s %9s %9s %9s %9s %12s %6s %6s %7s\n",
		"backend", "runs", "mean(ms)", "p50(ms)", "p95(ms)", "max(ms)", "link avg(ms)", "sent", "dlvd", "PDR")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %6d %9.1f %9.1f %9.1f %9.1f %12.2f %6d %6d %7.3f\n",
			row.Backend, row.Runs, row.Summary.Mean,
			stats.Percentile(row.TotalsMS, 50), stats.Percentile(row.TotalsMS, 95),
			row.Summary.Max, row.LinkAvgMS, row.FramesSent, row.FramesDelivered, row.PDR)
	}
	b.WriteString("Shape: ITS-G5 keeps the link a sub-2 ms term; PC5 pays SPS grant\n")
	b.WriteString("alignment (the DENM waits for the next reserved sidelink slot, up to\n")
	b.WriteString("one RRI), and Uu pays the base-station round through the core yet\n")
	b.WriteString("stays inside the paper's 100 ms end-to-end bound.\n")
	return b.String()
}
