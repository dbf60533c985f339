package experiments

import (
	"fmt"
	"strings"
	"time"

	"itsbed/internal/core"
	"itsbed/internal/geo"
	"itsbed/internal/radio"
	"itsbed/internal/stats"
	"itsbed/internal/trace"
	"itsbed/internal/world"
)

// Ablation studies of the design choices DESIGN.md calls out: the
// OBU poll period, the camera frame rate, channel load, DENM EDCA
// priority, and the obstructed-link behaviour with DEN repetition.

// PollSweepRow is one poll-interval configuration's outcome.
type PollSweepRow struct {
	PollInterval time.Duration
	// ReceiveToActionMS summarises the step 4→5 interval.
	ReceiveToAction stats.Summary
	// TotalMS summarises the end-to-end delay.
	Total stats.Summary
}

// PollIntervalSweep quantifies how the paper's request_denm polling
// period drives the OBU→actuator latency (the largest term of
// Table II). workers bounds the concurrent scenario runs across the
// sweep (<= 0 selects runtime.NumCPU()).
func PollIntervalSweep(baseSeed int64, runs int, intervals []time.Duration, workers int) ([]PollSweepRow, error) {
	if runs <= 0 {
		runs = 20
	}
	if len(intervals) == 0 {
		intervals = []time.Duration{
			10 * time.Millisecond, 20 * time.Millisecond, 35 * time.Millisecond,
			50 * time.Millisecond, 75 * time.Millisecond, 100 * time.Millisecond,
		}
	}
	return sweep(ScenarioOptions{BaseSeed: baseSeed, Runs: runs, Workers: workers}, 10000, intervals,
		func(iv time.Duration, opt ScenarioOptions) (PollSweepRow, error) {
			opt.Configure = func(c *core.Config) { c.Vehicle.PollInterval = iv }
			collected, err := collectRuns(opt, runs, complete)
			if err != nil {
				return PollSweepRow{}, fmt.Errorf("experiments: poll sweep %v: %w", iv, err)
			}
			var r2a, total []float64
			for _, r := range collected {
				r2a = append(r2a, ms(r.Intervals.ReceiveToAction))
				total = append(total, ms(r.Intervals.Total))
			}
			return PollSweepRow{
				PollInterval:    iv,
				ReceiveToAction: stats.Summarize(r2a),
				Total:           stats.Summarize(total),
			}, nil
		})
}

// FormatPollSweep renders the sweep.
func FormatPollSweep(rows []PollSweepRow) string {
	var b strings.Builder
	b.WriteString("ABL-1: OBU poll-interval sweep (step 4->5 is poll-period bound)\n")
	fmt.Fprintf(&b, "  %10s %16s %16s\n", "poll (ms)", "recv->act (ms)", "total (ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %10.0f %16.1f %16.1f\n",
			float64(r.PollInterval.Milliseconds()), r.ReceiveToAction.Mean, r.Total.Mean)
	}
	b.WriteString("Shape: mean recv->act tracks ~poll/2 + handler cost.\n")
	return b.String()
}

// FPSSweepRow is one camera-rate configuration's outcome.
type FPSSweepRow struct {
	FramePeriod time.Duration
	// SuccessRate is the fraction of attempts whose chain completed.
	SuccessRate float64
	// BrakingDistance summarises successful runs.
	BrakingDistance stats.Summary
	// CrossingLag is how far past the action point the detection frame
	// caught the vehicle (metres, from the video record).
	CrossingLag stats.Summary
}

// CameraFPSSweep quantifies the 4 FPS processing-rate choice: slower
// frame rates catch the vehicle deeper past the action point and miss
// the eligible window more often. workers bounds the concurrent
// scenario runs across the sweep (<= 0 selects runtime.NumCPU()).
func CameraFPSSweep(baseSeed int64, attempts int, periods []time.Duration, workers int) ([]FPSSweepRow, error) {
	if attempts <= 0 {
		attempts = 25
	}
	if len(periods) == 0 {
		periods = []time.Duration{
			100 * time.Millisecond, 250 * time.Millisecond,
			400 * time.Millisecond, 600 * time.Millisecond,
		}
	}
	return sweep(ScenarioOptions{BaseSeed: baseSeed, Runs: attempts, Workers: workers}, 10000, periods,
		func(p time.Duration, opt ScenarioOptions) (FPSSweepRow, error) {
			opt.Configure = func(c *core.Config) { c.CameraFramePeriod = p }
			// Every attempt counts here (failures are the signal), so
			// this is a fixed-size map, not a retrying collect.
			results, err := mapRuns(opt)
			if err != nil {
				return FPSSweepRow{}, fmt.Errorf("experiments: fps sweep %v: %w", p, err)
			}
			success := 0
			var braking, lag []float64
			for _, res := range results {
				if res.Run.Complete() && res.Stopped {
					success++
					braking = append(braking, res.BrakingDistance)
					if res.Video.CrossingFrameTime != 0 {
						lag = append(lag, 1.52-res.Video.CrossingFrameDistance)
					}
				}
			}
			return FPSSweepRow{
				FramePeriod:     p,
				SuccessRate:     float64(success) / float64(attempts),
				BrakingDistance: stats.Summarize(braking),
				CrossingLag:     stats.Summarize(lag),
			}, nil
		})
}

// FormatFPSSweep renders the sweep.
func FormatFPSSweep(rows []FPSSweepRow) string {
	var b strings.Builder
	b.WriteString("ABL-2: camera processing-rate sweep (paper runs at 4 FPS)\n")
	fmt.Fprintf(&b, "  %10s %10s %14s %14s\n", "period", "success", "braking (m)", "lag (m)")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %10v %9.0f%% %14.2f %14.2f\n",
			r.FramePeriod, r.SuccessRate*100, r.BrakingDistance.Mean, r.CrossingLag.Mean)
	}
	b.WriteString("Shape: slower processing misses the eligible window more often and\n")
	b.WriteString("catches the vehicle deeper past the action point.\n")
	return b.String()
}

// LoadSweepRow is one channel-load configuration's outcome.
type LoadSweepRow struct {
	BackgroundVehicles int
	// DENM high-priority (TC 0 → AC_VO) arm.
	HighPriority stats.Summary
	// DENM demoted (TC 3 → AC_BK) arm.
	LowPriority stats.Summary
}

// ChannelLoadSweep floods the 802.11p channel with CAM-chattering
// background stations and compares DENM send→receive latency with the
// DENM at the standard highest EDCA priority versus demoted — the
// ablation of the EDCA design choice. workers bounds the concurrent
// scenario runs across the sweep (<= 0 selects runtime.NumCPU()).
func ChannelLoadSweep(baseSeed int64, runs int, loads []int, workers int) ([]LoadSweepRow, error) {
	if runs <= 0 {
		runs = 15
	}
	if len(loads) == 0 {
		loads = []int{0, 10, 25, 50}
	}
	return sweep(ScenarioOptions{BaseSeed: baseSeed, Runs: runs, Workers: workers}, 20000, loads,
		func(n int, block ScenarioOptions) (LoadSweepRow, error) {
			row := LoadSweepRow{BackgroundVehicles: n}
			for arm, tc := range []uint8{0, 3} {
				opt := block
				opt.BaseSeed += int64(arm) * 1000
				opt.Configure = func(c *core.Config) {
					c.BackgroundVehicles = n
					c.DENMTrafficClass = tc
				}
				collected, err := collectRuns(opt, runs, complete)
				if err != nil {
					return LoadSweepRow{}, fmt.Errorf("experiments: load sweep n=%d tc=%d: %w", n, tc, err)
				}
				var link []float64
				for _, r := range collected {
					link = append(link, ms(r.Intervals.SendToReceive))
				}
				if arm == 0 {
					row.HighPriority = stats.Summarize(link)
				} else {
					row.LowPriority = stats.Summarize(link)
				}
			}
			return row, nil
		})
}

// FormatLoadSweep renders the sweep.
func FormatLoadSweep(rows []LoadSweepRow) string {
	var b strings.Builder
	b.WriteString("ABL-3: channel load vs DENM EDCA priority (send->receive, ms)\n")
	fmt.Fprintf(&b, "  %14s %18s %18s\n", "background", "AC_VO mean/max", "AC_BK mean/max")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %14d %10.2f/%5.2f %12.2f/%5.2f\n",
			r.BackgroundVehicles,
			r.HighPriority.Mean, r.HighPriority.Max,
			r.LowPriority.Mean, r.LowPriority.Max)
	}
	b.WriteString("Shape: under load the demoted DENM queues behind CAM traffic.\n")
	return b.String()
}

// ObstructionRow is one wall-material configuration's outcome.
type ObstructionRow struct {
	Material world.Material
	// DeliveryRate is the fraction of runs whose DENM reached the OBU
	// (and stopped the vehicle).
	DeliveryRate float64
	// Total summarises end-to-end delay of successful runs.
	Total stats.Summary
	// WithRepetition repeats the study with DEN repetition at 100 ms.
	WithRepetitionRate float64
}

// fullScalePathLoss emulates full-size deployment distances on the
// 1/10-scale floor: laboratory link budgets are so generous that even
// a metal wall cannot break a 1.4 m link, so the study adds the 40 dB
// a 100× longer full-size path would cost. (The paper's discussion
// makes the same point: scale results must be mapped through models
// to full-size conclusions.)
func fullScalePathLoss() radio.PathLossModel {
	m := radio.DefaultIndoorPathLoss()
	m.ReferenceLossDB += 40
	m.ShadowingSigmaDB = 3
	return m
}

// ObstructedLink (EXT-5) puts a wall between the RSU and the
// approaching vehicle and sweeps its material: heavier walls drop the
// single-shot DENM; DEN repetition recovers stochastic losses (but not
// hard blockage). This is the paper's "model attenuation by shadowing"
// future-work item made concrete. Delivery is conditioned on the DENM
// actually having been sent, so camera misses do not pollute the rate.
func ObstructedLink(baseSeed int64, runs, workers int) ([]ObstructionRow, error) {
	if runs <= 0 {
		runs = 15
	}
	materials := []world.Material{0, world.MaterialDrywall, world.MaterialBrick, world.MaterialConcrete, world.MaterialMetal}
	return sweep(ScenarioOptions{BaseSeed: baseSeed, Runs: runs, Workers: workers}, 20000, materials,
		func(mat world.Material, block ScenarioOptions) (ObstructionRow, error) {
			row := ObstructionRow{Material: mat}
			for arm, repetition := range []time.Duration{0, 100 * time.Millisecond} {
				opt := block
				opt.BaseSeed += int64(arm) * 1000
				opt.Configure = func(c *core.Config) {
					c.PathLoss = fullScalePathLoss()
					if mat != 0 {
						// A wall across the lane north of the entire
						// eligible detection band (y <= 5.85) and
						// south of the RSU antenna (y 6.6), so every
						// single-shot DENM crosses it.
						c.Obstructions = world.NewMap([]world.Wall{{
							Segment: geo.Segment{
								A: geo.Point{X: -2, Y: 6.0},
								B: geo.Point{X: 2, Y: 6.0},
							},
							Material: mat,
						}})
					}
					c.DENMRepetitionInterval = repetition
				}
				// Failed deliveries are the measurement, so run a fixed
				// number of attempts rather than retrying to n accepted.
				results, err := mapRuns(opt)
				if err != nil {
					return ObstructionRow{}, fmt.Errorf("experiments: obstruction %v: %w", mat, err)
				}
				sent, delivered := 0, 0
				var totals []float64
				for _, res := range results {
					if !res.Run.Stamped(trace.StepRSUSend) {
						continue // camera never armed the trigger; not a link failure
					}
					sent++
					if res.Run.Stamped(trace.StepOBUReceive) {
						delivered++
						if arm == 0 && res.Run.Complete() {
							totals = append(totals, ms(res.Intervals.Total))
						}
					}
				}
				rate := 0.0
				if sent > 0 {
					rate = float64(delivered) / float64(sent)
				}
				if arm == 0 {
					row.DeliveryRate = rate
					row.Total = stats.Summarize(totals)
				} else {
					row.WithRepetitionRate = rate
				}
			}
			return row, nil
		})
}

// FormatObstruction renders the study.
func FormatObstruction(rows []ObstructionRow) string {
	var b strings.Builder
	b.WriteString("EXT-5: obstructed RSU-OBU link (wall material sweep)\n")
	fmt.Fprintf(&b, "  %-10s %14s %12s %22s\n", "material", "delivery", "total (ms)", "with 100ms repetition")
	for _, r := range rows {
		name := "open"
		if r.Material != 0 {
			name = r.Material.String()
		}
		fmt.Fprintf(&b, "  %-10s %13.0f%% %12.1f %21.0f%%\n",
			name, r.DeliveryRate*100, r.Total.Mean, r.WithRepetitionRate*100)
	}
	b.WriteString("Shape: penetration loss degrades single-shot delivery; DEN\n")
	b.WriteString("repetition restores it at the cost of added delay.\n")
	return b.String()
}
