package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"itsbed/internal/campaign"
	"itsbed/internal/core"
	"itsbed/internal/faults"
	"itsbed/internal/flight"
	"itsbed/internal/metrics"
	"itsbed/internal/tracing"
)

// ResilienceOptions tune a fault-plan resilience sweep.
type ResilienceOptions struct {
	// BaseSeed; run i uses BaseSeed+i, with the same per-run physical
	// jitter as the Table II harness so the baseline is comparable.
	BaseSeed int64
	// Runs is the number of faulted runs (and baseline runs).
	Runs int
	// Workers for the campaign engine; results are bit-identical for
	// any value.
	Workers int
	// Horizon per run.
	Horizon time.Duration
	// UseVision selects the full image pipeline (slower).
	UseVision bool
	// Radio selects the radio backend for both the baseline and the
	// faulted sweep ("" keeps ITS-G5).
	Radio Backend
	// Plan is the fault schedule injected into every faulted run.
	Plan faults.Plan
	// TriggerRetries for the edge's trigger_denm path under faults;
	// zero selects 3.
	TriggerRetries int
	// Metrics, when non-nil, receives the campaign counters and merged
	// per-run registries of the faulted sweep.
	Metrics *metrics.Registry
	// Trace merges per-run spans (run order) into the result.
	Trace bool
	// Blackbox, when non-empty, is a directory the sweep writes flight-
	// recorder post-mortems into: every run that trips an anomaly
	// trigger (miss or fail-safe outcome, 2→5 total above the 100 ms
	// SLO, or any injected fault window) dumps its black-box ring as
	// JSONL plus an ASCII timeline. Dump contents are bit-identical for
	// any Workers value.
	Blackbox string
	// Progress, when non-nil, observes sweep progress (completed runs
	// out of total, faulted sweep only) from the calling goroutine.
	Progress func(done, total int)
}

func (o ResilienceOptions) withDefaults() ResilienceOptions {
	if o.Runs <= 0 {
		o.Runs = 5
	}
	if o.Horizon <= 0 {
		o.Horizon = 30 * time.Second
	}
	if o.TriggerRetries <= 0 {
		o.TriggerRetries = 3
	}
	return o
}

// ResilienceRun is one faulted run's outcome.
type ResilienceRun struct {
	Run int
	// Outcome is "warned-stop", "failsafe-stop" or "miss".
	Outcome string
	// StopCause is the vehicle's stop trigger ("" on a miss).
	StopCause string
	// Complete reports whether all four chain stamps landed (only then
	// is Total meaningful).
	Complete bool
	// Total is the steps 2→5 delay when Complete.
	Total time.Duration
	// FinalCameraDistance where the run ended.
	FinalCameraDistance float64
}

// ResilienceResult compares a faulted sweep against the fault-free
// Table II baseline over the same seeds.
type ResilienceResult struct {
	// Plan is the injected plan's name.
	Plan string
	Rows []ResilienceRun
	// Outcome tallies.
	WarnedStops, FailSafeStops, Misses int
	// MissRate is Misses / Runs.
	MissRate float64
	// BaselineAvgTotal is the fault-free Table II average 2→5 delay.
	BaselineAvgTotal time.Duration
	// WarnedAvgTotal averages Total over complete warned-stop runs
	// (zero when none completed the chain).
	WarnedAvgTotal time.Duration
	// LatencyInflation is WarnedAvgTotal/BaselineAvgTotal - 1 (zero
	// when either side is missing).
	LatencyInflation float64
	// Metrics is the merge of every faulted run's registry, run order.
	Metrics metrics.Snapshot
	// Traces holds the merged faulted-run spans when Trace was set.
	Traces tracing.Snapshot
	// Dumps lists the post-mortem files written when Blackbox was set
	// (never printed by Format, so report output stays golden-stable).
	Dumps []string
}

// DENMLatencySLO is the paper's "never exceeded 100 ms" bound on the
// 2→5 total delay; a completed run above it trips a post-mortem dump.
const DENMLatencySLO = 100 * time.Millisecond

// anomalous reports whether one resilience run trips a black-box
// post-mortem trigger: any outcome other than a warned stop, an SLO
// breach on the completed chain, or a plan that injected faults into
// the run.
func anomalous(res *core.Result, plan faults.Plan) bool {
	if res.Outcome != core.OutcomeWarnedStop {
		return true
	}
	if res.Run.Complete() && res.Intervals.Total > DENMLatencySLO {
		return true
	}
	return !plan.Empty()
}

// writeFlightDump writes one run's post-mortem pair (JSONL + ASCII
// timeline) into dir, creating it as needed.
func writeFlightDump(dir string, run int, outcome string, snap flight.Snapshot) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("run%02d_%s.flight", run, outcome))
	jf, err := os.Create(base + ".jsonl")
	if err != nil {
		return nil, err
	}
	if err := flight.WriteJSONL(jf, snap); err != nil {
		jf.Close()
		return nil, err
	}
	if err := jf.Close(); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".txt", []byte(flight.Timeline(snap)), 0o644); err != nil {
		return nil, err
	}
	return []string{base + ".jsonl", base + ".txt"}, nil
}

// Resilience runs the fault plan against Runs seeded scenarios — the
// watchdog fail-safe and the edge trigger retries enabled — and
// reports the outcome distribution and latency inflation versus the
// fault-free Table II baseline over the same seeds. Unlike Table II,
// every faulted run counts: a missed detection under faults is a
// result, not a retryable accident.
func Resilience(opt ResilienceOptions) (ResilienceResult, error) {
	opt = opt.withDefaults()
	out := ResilienceResult{Plan: opt.Plan.Name}
	if err := opt.Plan.Validate(); err != nil {
		return out, err
	}

	baseOpt := ScenarioOptions{
		BaseSeed:  opt.BaseSeed,
		Runs:      opt.Runs,
		Workers:   opt.Workers,
		Horizon:   opt.Horizon,
		UseVision: opt.UseVision,
		Radio:     opt.Radio,
	}
	baseline, err := TableII(baseOpt)
	if err != nil {
		return out, fmt.Errorf("experiments: resilience baseline: %w", err)
	}
	out.BaselineAvgTotal = baseline.AvgTotal

	plan := opt.Plan
	faultOpt := baseOpt
	faultOpt.Trace = opt.Trace
	faultOpt.Configure = func(cfg *core.Config) {
		cfg.Faults = &plan
		cfg.Vehicle.Watchdog.Enabled = true
		cfg.Hazard.TriggerRetries = opt.TriggerRetries
	}
	runs, err := campaign.Map(campaign.Options{Workers: opt.Workers, Metrics: opt.Metrics, Progress: opt.Progress}, opt.Runs,
		func(i int) (*core.Result, error) { return runOnce(faultOpt, i) })
	if err != nil {
		return out, fmt.Errorf("experiments: resilience sweep: %w", err)
	}

	merged := opt.Metrics
	if merged == nil {
		// Snapshot copies, so the merge registry can be a pooled one.
		merged = attemptRegistries.Get().(*metrics.Registry)
		merged.Reset()
		defer attemptRegistries.Put(merged)
	}
	var spans []tracing.Snapshot
	var warnedSum time.Duration
	var warnedComplete int
	for i, res := range runs {
		merged.Merge(res.Metrics)
		if opt.Trace {
			spans = append(spans, res.Spans)
		}
		row := ResilienceRun{
			Run:                 i + 1,
			Outcome:             res.Outcome.String(),
			StopCause:           res.StopCause,
			Complete:            res.Run.Complete(),
			FinalCameraDistance: res.FinalCameraDistance,
		}
		if row.Complete {
			row.Total = res.Intervals.Total
		}
		switch res.Outcome {
		case core.OutcomeWarnedStop:
			out.WarnedStops++
			if row.Complete {
				warnedSum += row.Total
				warnedComplete++
			}
		case core.OutcomeFailSafeStop:
			out.FailSafeStops++
		default:
			out.Misses++
		}
		if opt.Blackbox != "" && anomalous(res, plan) {
			files, err := writeFlightDump(opt.Blackbox, row.Run, row.Outcome, res.Flight)
			if err != nil {
				return out, fmt.Errorf("experiments: resilience blackbox dump: %w", err)
			}
			out.Dumps = append(out.Dumps, files...)
		}
		out.Rows = append(out.Rows, row)
	}
	out.MissRate = float64(out.Misses) / float64(len(runs))
	if warnedComplete > 0 {
		out.WarnedAvgTotal = warnedSum / time.Duration(warnedComplete)
		if out.BaselineAvgTotal > 0 {
			out.LatencyInflation = float64(out.WarnedAvgTotal)/float64(out.BaselineAvgTotal) - 1
		}
	}
	out.Metrics = merged.Snapshot()
	if opt.Trace {
		out.Traces = tracing.MergeRuns(spans)
	}
	return out, nil
}

// Format renders the resilience sweep report.
func (r ResilienceResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "RESILIENCE: fault plan %q over %d runs (fail-safe watchdog on)\n", r.Plan, len(r.Rows))
	fmt.Fprintf(&b, "%-5s %-14s %-10s %9s %10s\n", "Run", "Outcome", "Cause", "2->5 (ms)", "Final (m)")
	for _, row := range r.Rows {
		total := "-"
		if row.Complete {
			total = fmt.Sprintf("%.1f", ms(row.Total))
		}
		cause := row.StopCause
		if cause == "" {
			cause = "-"
		}
		fmt.Fprintf(&b, "#%-4d %-14s %-10s %9s %10.2f\n", row.Run, row.Outcome, cause, total, row.FinalCameraDistance)
	}
	fmt.Fprintf(&b, "Outcomes: %d warned-stop, %d failsafe-stop, %d miss (miss rate %.2f)\n",
		r.WarnedStops, r.FailSafeStops, r.Misses, r.MissRate)
	fmt.Fprintf(&b, "Baseline avg total: %.1f ms (fault-free Table II, same seeds)\n", ms(r.BaselineAvgTotal))
	if r.WarnedAvgTotal > 0 {
		fmt.Fprintf(&b, "Warned-stop avg total: %.1f ms (latency inflation %+.1f%%)\n",
			ms(r.WarnedAvgTotal), r.LatencyInflation*100)
	} else {
		b.WriteString("Warned-stop avg total: n/a (no warned stop completed the chain)\n")
	}
	var any bool
	for _, c := range r.Metrics.Counters {
		if !strings.HasPrefix(c.Name, "fault_") {
			continue
		}
		if !any {
			b.WriteString("Injected faults:\n")
			any = true
		}
		name := c.Name
		for _, l := range c.Labels {
			name += fmt.Sprintf(" %s=%s", l.Key, l.Value)
		}
		fmt.Fprintf(&b, "  %-52s %d\n", name, c.Value)
	}
	if !any {
		b.WriteString("Injected faults: none recorded\n")
	}
	return b.String()
}
