package experiments

import (
	"fmt"
	"strings"
	"time"

	"itsbed/internal/metrics"
	"itsbed/internal/trace"
)

// LayerBudgetRow is one layer's mean contribution to the DENM chain's
// detection-to-actuation delay.
type LayerBudgetRow struct {
	// Layer names the delay source: radio, geonet, facilities,
	// openc2x-poll or actuation.
	Layer string
	// Mean contribution per run.
	Mean time.Duration
	// Detail describes what the row measures.
	Detail string
}

// LayerBudget decomposes the Table II average total delay (steps 2→5)
// into per-layer means computed from the merged metrics snapshot. The
// actuation row is the remainder against AvgTotal, so the rows always
// sum to the Table II average exactly.
type LayerBudget struct {
	Rows  []LayerBudgetRow
	Total time.Duration
}

// histMean returns a histogram's mean in seconds, or zero when the
// family is absent or empty.
func histMean(snap metrics.Snapshot, name string, labels ...metrics.Label) float64 {
	h, ok := snap.FindHistogram(name, labels...)
	if !ok || h.Count == 0 {
		return 0
	}
	return h.Mean()
}

// LayerBudget computes the per-layer delay decomposition of the DENM
// warning chain from the merged run metrics.
func (t TableIIResult) LayerBudget() LayerBudget {
	snap := t.Metrics
	sec := func(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }
	rsu := trace.StationLabel("rsu")
	obu := trace.StationLabel("obu")
	denm := metrics.L("msg", "denm")
	acvo := metrics.L("ac", "AC_VO")

	facilities := sec(
		histMean(snap, "openc2x_trigger_latency_seconds", rsu, metrics.L("dir", "up")) +
			histMean(snap, "stack_tx_latency_seconds", rsu, denm) +
			histMean(snap, "stack_rx_latency_seconds", obu, denm))
	radio := sec(
		histMean(snap, "radio_access_delay_seconds", rsu, acvo) +
			histMean(snap, "radio_airtime_seconds", acvo))
	// GN processing is not a modeled delay source: the router hands the
	// frame straight through, so its budget share is zero by design.
	geonet := time.Duration(0)
	poll := sec(
		histMean(snap, "openc2x_mailbox_residency_seconds", obu) +
			histMean(snap, "openc2x_poll_latency_seconds", obu, metrics.L("dir", "down")))
	actuation := t.AvgTotal - facilities - radio - geonet - poll

	return LayerBudget{
		Total: t.AvgTotal,
		Rows: []LayerBudgetRow{
			{Layer: "facilities", Mean: facilities,
				Detail: "DEN trigger ingress + RSU stack tx + OBU stack rx"},
			{Layer: "radio", Mean: radio,
				Detail: "802.11p AC_VO channel access + airtime"},
			{Layer: "geonet", Mean: geonet,
				Detail: "GN routing (pass-through, counters only)"},
			{Layer: "openc2x-poll", Mean: poll,
				Detail: "OBU mailbox residency + poll egress"},
			{Layer: "actuation", Mean: actuation,
				Detail: "remainder: detection latency, ECU reaction, NTP skew"},
		},
	}
}

// Format renders the layer budget as a fixed-width table.
func (b LayerBudget) Format() string {
	var sb strings.Builder
	sb.WriteString("Per-layer delay budget of the warning chain (steps 2 -> 5)\n")
	fmt.Fprintf(&sb, "%-14s %10s  %s\n", "Layer", "Mean (ms)", "Measures")
	var sum time.Duration
	for _, r := range b.Rows {
		sum += r.Mean
		fmt.Fprintf(&sb, "%-14s %10.3f  %s\n", r.Layer, ms(r.Mean), r.Detail)
	}
	fmt.Fprintf(&sb, "%-14s %10.3f  (= Table II avg total %.3f ms)\n", "sum", ms(sum), ms(b.Total))
	return sb.String()
}
