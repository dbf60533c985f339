// Package experiments contains one harness per table and figure of the
// paper's evaluation (Table II step intervals, Table III braking
// distances, Fig. 10 video analysis, Fig. 11 EDF), the Fig. 7
// detection-reliability study, and the extension experiments the
// paper lists as future work: a large-N latency CDF with parametric
// fits, an ITS-G5 vs cellular interface comparison, a platoon
// detection-to-action study, and the blind-corner network-aided vs
// onboard-only baseline.
package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"itsbed/internal/campaign"
	"itsbed/internal/core"
	"itsbed/internal/flight"
	"itsbed/internal/metrics"
	"itsbed/internal/stats"
	"itsbed/internal/trace"
	"itsbed/internal/tracing"
	"itsbed/internal/track"
	"itsbed/internal/vehicle"
)

// attempts pools per-attempt sinks across a campaign's attempts: a
// Reset sink snapshots bit-identically to a fresh one (generation-
// filtered metric families, restarted span IDs and flight sequence,
// kept station rings), so reuse is invisible in the merged output for
// any -workers value while a 1k-run sweep stops allocating ~1k
// registries' worth of families and recorders' worth of ring slabs.
var attempts = sync.Pool{New: func() any {
	return &trace.Sink{Metrics: metrics.NewRegistry(), Tracer: tracing.New(), Flight: flight.NewRecorder(0)}
}}

// pooledSink takes a reset sink from the attempt pool; put it back
// once nothing reads it any more.
func pooledSink() *trace.Sink {
	sink := attempts.Get().(*trace.Sink)
	sink.Reset()
	return sink
}

// ScenarioOptions tune the common emergency-brake scenario.
type ScenarioOptions struct {
	// BaseSeed; run i uses BaseSeed+i.
	BaseSeed int64
	// Runs is the number of repetitions.
	Runs int
	// UseVision selects the full image pipeline in the vehicle's line
	// follower (slower); large sweeps use the ground-truth follower.
	UseVision bool
	// Horizon per run.
	Horizon time.Duration
	// Radio selects the radio backend ("" keeps the paper's ITS-G5
	// stack). Applied before Configure, which may override.
	Radio core.RadioKind
	// Configure, if set, customises the testbed config before each run.
	Configure func(*core.Config)
	// Workers is the number of scenario runs executed concurrently
	// (each on a private simulation kernel). Zero or negative selects
	// runtime.NumCPU(); one forces serial execution. Results are
	// bit-identical regardless of the worker count.
	Workers int
	// Metrics, when non-nil, receives the campaign-level counters and
	// the merged per-run registries. Nil keeps the harness using a
	// private registry, so per-run metrics still appear in the results.
	Metrics *metrics.Registry
	// Trace enables per-message span tracing: each run gets a private
	// tracer and the harness merges the accepted runs' spans in run
	// order, so the trace output is identical for any worker count.
	Trace bool
	// Progress, when non-nil, observes campaign progress (processed
	// attempts out of the attempt budget). It runs on the calling
	// goroutine only, outside every simulation kernel, and provably
	// cannot perturb results.
	Progress func(done, total int)
}

func (o ScenarioOptions) withDefaults() ScenarioOptions {
	if o.Runs <= 0 {
		o.Runs = 5
	}
	if o.Horizon <= 0 {
		o.Horizon = 30 * time.Second
	}
	return o
}

// runOnce executes one seeded scenario.
func runOnce(opt ScenarioOptions, i int) (*core.Result, error) {
	cfg := core.Config{Seed: opt.BaseSeed + int64(i)}
	cfg.Layout = track.PaperLab()
	cfg.Vehicle = vehicle.DefaultConfig(cfg.Layout)
	cfg.Vehicle.UseVision = opt.UseVision
	// Run-to-run physical variation: the operator places and throttles
	// the car slightly differently each run, and floor condition
	// varies — the source of Table III's spread.
	rng := rand.New(rand.NewSource(opt.BaseSeed + int64(i)*7919))
	cfg.Vehicle.CruiseSpeed += rng.Float64()*0.40 - 0.20
	cfg.Vehicle.Params.BrakeDecel += rng.Float64()*1.6 - 0.8
	// The result only carries snapshots (copies), so the attempt's sink
	// can go back to the pool once the run is over.
	sink := pooledSink()
	defer attempts.Put(sink)
	cfg.Sink = *sink
	if !opt.Trace {
		cfg.Sink.Tracer = nil
	}
	cfg.Radio = opt.Radio
	if opt.Configure != nil {
		opt.Configure(&cfg)
	}
	tb, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: run %d: %w", i, err)
	}
	res, err := tb.RunScenario(opt.Horizon)
	if err != nil {
		return nil, fmt.Errorf("experiments: run %d: %w", i, err)
	}
	return res, nil
}

// TableIIRow is one column of the paper's Table II (one run).
type TableIIRow struct {
	Run             int
	DetectionToSend time.Duration // steps 2→3
	SendToReceive   time.Duration // steps 3→4
	ReceiveToAction time.Duration // steps 4→5
	Total           time.Duration // steps 2→5
}

// TableIIResult is the full table plus averages.
type TableIIResult struct {
	Rows []TableIIRow
	// Averages in the same order as the paper's "Avg." column.
	AvgDetectionToSend time.Duration
	AvgSendToReceive   time.Duration
	AvgReceiveToAction time.Duration
	AvgTotal           time.Duration
	// MaxTotal supports the paper's "never exceeded 100 ms" claim.
	MaxTotal time.Duration
	// Metrics is the merge of every accepted run's registry snapshot,
	// in run order, so the output is identical for any worker count.
	Metrics metrics.Snapshot
	// Traces holds the merged spans of every accepted run (run order,
	// IDs rebased per run) when ScenarioOptions.Trace was set.
	Traces tracing.Snapshot
}

// maxAttemptFactor bounds run repetition: like the lab experimenters,
// the harness repeats a run whose detection chain failed (the YOLO
// stand-in can miss every eligible frame), but gives up after this
// multiple of the requested run count.
const maxAttemptFactor = 4

// engine returns the campaign-engine options of a scenario campaign.
func (o ScenarioOptions) engine() campaign.Options {
	return campaign.Options{Workers: o.Workers, Metrics: o.Metrics, Progress: o.Progress}
}

// collect runs attempts until n are accepted, in attempt order,
// repeating rejected attempts as a lab operator would, and gives up
// after maxAttemptFactor*n attempts with an error naming what it
// counted ("runs", "platoon runs").
func collect[T any](opt campaign.Options, n int, what string, run func(attempt int) (T, error), accept func(T) bool) ([]T, error) {
	out, err := campaign.Collect(opt, n, n*maxAttemptFactor, run, accept)
	var ex *campaign.ExhaustedError
	if errors.As(err, &ex) {
		return nil, fmt.Errorf("experiments: only %d/%d %s succeeded after %d attempts",
			ex.Accepted, ex.Wanted, what, ex.Attempts)
	}
	return out, err
}

// collectRuns executes scenarios until n accepted runs are gathered.
// Attempts run concurrently on opt.Workers workers (each with a
// private simulation kernel and the derived seed BaseSeed+attempt);
// the campaign engine guarantees the accepted set is identical to
// serial execution.
func collectRuns(opt ScenarioOptions, n int, accept func(*core.Result) bool) ([]*core.Result, error) {
	return collect(opt.engine(), n, "runs", func(i int) (*core.Result, error) { return runOnce(opt, i) }, accept)
}

// mapRuns executes attempts 0..opt.Runs-1 and keeps every one, for
// the studies whose failed runs are the measurement.
func mapRuns(opt ScenarioOptions) ([]*core.Result, error) {
	return campaign.Map(opt.engine(), opt.Runs, func(i int) (*core.Result, error) { return runOnce(opt, i) })
}

// complete accepts a run whose four chain stamps all landed.
func complete(r *core.Result) bool { return r.Run.Complete() }

// sweep runs one campaign per variant and returns the rows in variant
// order. base.Workers bounds the concurrent attempts of the whole
// sweep, shared between the variants and the attempts within each.
// row gets variant vi with its block: base with the seed block
// BaseSeed+vi*stride and its share of the workers. The rows run
// concurrently, so a block carries no Metrics or Progress.
func sweep[V, R any](base ScenarioOptions, stride int64, variants []V, row func(v V, block ScenarioOptions) (R, error)) ([]R, error) {
	base = base.withDefaults()
	outer, inner := campaign.Split(base.Workers, len(variants))
	return campaign.Map(campaign.Options{Workers: outer}, len(variants), func(vi int) (R, error) {
		block := base
		block.BaseSeed += int64(vi) * stride
		block.Workers, block.Metrics, block.Progress = inner, nil, nil
		return row(variants[vi], block)
	})
}

// TableII reproduces the paper's Table II: per-run step intervals of
// the emergency braking chain.
func TableII(opt ScenarioOptions) (TableIIResult, error) {
	opt = opt.withDefaults()
	var out TableIIResult
	var sum [4]time.Duration
	runs, err := collectRuns(opt, opt.Runs, complete)
	if err != nil {
		return out, err
	}
	merged := mergeRuns(opt.Metrics, runs)
	out.Metrics, out.Traces = merged.Metrics, merged.Spans
	for i, res := range runs {
		iv := res.Intervals
		out.Rows = append(out.Rows, TableIIRow{
			Run:             i + 1,
			DetectionToSend: iv.DetectionToSend,
			SendToReceive:   iv.SendToReceive,
			ReceiveToAction: iv.ReceiveToAction,
			Total:           iv.Total,
		})
		sum[0] += iv.DetectionToSend
		sum[1] += iv.SendToReceive
		sum[2] += iv.ReceiveToAction
		sum[3] += iv.Total
		if iv.Total > out.MaxTotal {
			out.MaxTotal = iv.Total
		}
	}
	n := time.Duration(len(out.Rows))
	out.AvgDetectionToSend = sum[0] / n
	out.AvgSendToReceive = sum[1] / n
	out.AvgReceiveToAction = sum[2] / n
	out.AvgTotal = sum[3] / n
	return out, nil
}

// mergeRuns merges the runs' instrumentation in run order (see
// trace.Sink.Merge), their metrics into reg or, when reg is nil, into
// a pooled registry.
func mergeRuns(reg *metrics.Registry, runs []*core.Result) trace.Snapshot {
	if reg == nil {
		// Snapshot copies, so the merge registry can be a pooled one.
		sink := pooledSink()
		defer attempts.Put(sink)
		reg = sink.Metrics
	}
	snaps := make([]trace.Snapshot, len(runs))
	for i, res := range runs {
		snaps[i] = res.Snapshot
	}
	return trace.Sink{Metrics: reg}.Merge(snaps)
}

// Totals returns the per-run total delays as milliseconds (Fig. 11
// input).
func (t TableIIResult) Totals() []float64 {
	out := make([]float64, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = float64(r.Total) / float64(time.Millisecond)
	}
	return out
}

// Format renders the table in the paper's layout.
func (t TableIIResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE II: Time interval measurements (%d runs)\n", len(t.Rows))
	fmt.Fprintf(&b, "%-28s", "Interval between Steps")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, " %6s", fmt.Sprintf("#%d", r.Run))
	}
	fmt.Fprintf(&b, " %7s (ms)\n", "Avg.")
	line := func(name string, get func(TableIIRow) time.Duration, avg time.Duration) {
		fmt.Fprintf(&b, "%-28s", name)
		for _, r := range t.Rows {
			fmt.Fprintf(&b, " %6.1f", ms(get(r)))
		}
		fmt.Fprintf(&b, " %7.1f\n", ms(avg))
	}
	line("#2 Detection -> #3 RSU send", func(r TableIIRow) time.Duration { return r.DetectionToSend }, t.AvgDetectionToSend)
	line("#3 RSU send -> #4 OBU recv", func(r TableIIRow) time.Duration { return r.SendToReceive }, t.AvgSendToReceive)
	line("#4 OBU recv -> #5 Actuators", func(r TableIIRow) time.Duration { return r.ReceiveToAction }, t.AvgReceiveToAction)
	line("Total Delay (#2 -> #5)", func(r TableIIRow) time.Duration { return r.Total }, t.AvgTotal)
	fmt.Fprintf(&b, "Max total: %.1f ms (paper: <100 ms in all runs)\n", ms(t.MaxTotal))
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// TableIIIResult is the braking-distance table.
type TableIIIResult struct {
	// Distances in metres, one per run.
	Distances []float64
	Summary   stats.Summary
	// VehicleLength for the "less than one vehicle length" comparison.
	VehicleLength float64
}

// TableIII reproduces the paper's Table III: distance travelled from
// detection to halt over repeated runs.
func TableIII(opt ScenarioOptions) (TableIIIResult, error) {
	opt = opt.withDefaults()
	if opt.Runs == 5 {
		opt.Runs = 7 // the paper's Table III uses 7 runs
	}
	var out TableIIIResult
	out.VehicleLength = 0.53
	runs, err := collectRuns(opt, opt.Runs, func(r *core.Result) bool { return r.Stopped })
	if err != nil {
		return out, err
	}
	for _, res := range runs {
		out.Distances = append(out.Distances, res.BrakingDistance)
	}
	out.Summary = stats.Summarize(out.Distances)
	return out, nil
}

// Format renders Table III in the paper's layout.
func (t TableIIIResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE III: Distance travelled from detection to halt (%d runs)\n", len(t.Distances))
	fmt.Fprintf(&b, "%-18s", "Run")
	for i := range t.Distances {
		fmt.Fprintf(&b, " %6s", fmt.Sprintf("#%d", i+1))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-18s", "Braking Dist. (m)")
	for _, d := range t.Distances {
		fmt.Fprintf(&b, " %6.2f", d)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "Average %.2f m, variance %.4f (paper: 0.36 m, 0.0022); vehicle length %.2f m\n",
		t.Summary.Mean, t.Summary.Variance, t.VehicleLength)
	return b.String()
}

// Figure11Result is the EDF of the total-delay samples.
type Figure11Result struct {
	Samples []float64 // milliseconds
	EDF     stats.EDF
}

// Figure11 reproduces the paper's Fig. 11: the empirical distribution
// function of the total (step 2→5) delay samples of Table II.
func Figure11(opt ScenarioOptions) (Figure11Result, error) {
	t2, err := TableII(opt)
	if err != nil {
		return Figure11Result{}, err
	}
	samples := t2.Totals()
	return Figure11Result{Samples: samples, EDF: stats.NewEDF(samples)}, nil
}

// Format renders the EDF as the value/probability series of Fig. 11.
func (f Figure11Result) Format() string {
	var b strings.Builder
	b.WriteString("Fig. 11: Empirical distribution function of total delay\n")
	b.WriteString("   total (ms)   F(x)\n")
	b.WriteString(stats.FormatEDF(f.EDF, "ms"))
	return b.String()
}

// Figure10Result is the camera-frame analysis of one run.
type Figure10Result struct {
	Video core.VideoAnalysis
	// ActionPointDistance configured (1.52 m).
	ActionPointDistance float64
	// FramePeriod of the road-side video recording the frames come
	// from (core.VideoFramePeriod: 40 ms, 25 fps), not of the 4 FPS
	// detector.
	FramePeriod time.Duration
}

// Figure10 reproduces the paper's Fig. 10 reading: the detection-to-
// stop period measured from the road-side video frames.
func Figure10(opt ScenarioOptions) (Figure10Result, error) {
	opt = opt.withDefaults()
	runs, err := collectRuns(opt, 1, func(r *core.Result) bool { return r.Stopped && r.Video.Valid })
	if err != nil {
		return Figure10Result{}, err
	}
	return Figure10Result{
		Video:               runs[0].Video,
		ActionPointDistance: 1.52,
		FramePeriod:         core.VideoFramePeriod,
	}, nil
}

// Format renders the Fig. 10 observation.
func (f Figure10Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 10: Video frames to obtain detection-to-stop period (%.0f fps recording)\n", float64(time.Second)/float64(f.FramePeriod))
	if !f.Video.Valid {
		b.WriteString("  no valid crossing/stop frame pair found\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  crossing frame at t=%.2f s: vehicle crosses the %.2f m action point, detected at %.2f m\n",
		f.Video.CrossingFrameTime.Seconds(), f.ActionPointDistance, f.Video.CrossingFrameDistance)
	fmt.Fprintf(&b, "  stop frame at t=%.2f s\n", f.Video.StopFrameTime.Seconds())
	fmt.Fprintf(&b, "  detection-to-stop: %.0f ms (frame-quantised at %v; paper run #4: ~200 ms)\n",
		ms(f.Video.DetectionToStop), f.FramePeriod)
	return b.String()
}
