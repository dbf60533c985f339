package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"itsbed/internal/campaign"
	"itsbed/internal/geo"
	"itsbed/internal/its/facilities/den"
	"itsbed/internal/its/facilities/ldm"
	"itsbed/internal/its/messages"
	"itsbed/internal/perception"
	"itsbed/internal/stack"
	"itsbed/internal/stats"
	"itsbed/internal/track"
	"itsbed/internal/units"
)

// CPM-1: the occluded-pedestrian scenario. A pedestrian steps out
// from behind the corner building and crosses the protagonist's lane.
// The OBU has no line of sight; the road-side camera sees the whole
// crossing. Two network policies run under identical seeds:
//
//   - CAM/DENM only: the RSU stays silent until the pedestrian is
//     about to enter the lane (a conventional humanPresenceOnTheRoad
//     DENM keyed on the road boundary), which is often too late.
//   - CPM enabled: the RSU additionally shares its perceived objects
//     in CPMs from the first detection, the OBU fuses them into its
//     LDM, and the hazard monitor brakes on the fused person track
//     while the pedestrian is still metres from the lane.
//
// The campaign compares warned-stop and miss rates plus the warning
// latency from pedestrian emergence to the brake decision.

// Occluded-pedestrian geometry and dynamics.
const (
	// cpmConflictY is where the pedestrian's path crosses the lane.
	cpmConflictY = 6.0
	// cpmPedStartX is where the pedestrian emerges from occlusion.
	cpmPedStartX = 4.0
	// cpmPedSpeed westwards across the lane.
	cpmPedSpeed = 1.0
	// cpmBrakeDecel is the robot's service-brake deceleration.
	cpmBrakeDecel = 0.8
	// cpmLaneGuard is the DENM trigger boundary: the conventional
	// hazard service only warns about a person this close to the lane
	// centreline.
	cpmLaneGuard = 0.8
	// cpmWarnAhead is how far ahead the CPM hazard monitor scans the
	// fused LDM for persons near the lane.
	cpmWarnAhead = 8.0
	// cpmCorridorHalf is the lateral half-width of the monitored
	// corridor around the lane centreline.
	cpmCorridorHalf = 1.2
	// cpmMissDistance is the separation below which a run counts as a
	// miss (near-collision).
	cpmMissDistance = 0.4
)

// CPMOptions configures the occluded-pedestrian campaign.
type CPMOptions struct {
	BaseSeed int64
	// Runs per arm; both arms of a run share one seed (zero selects 30).
	Runs int
	// Workers bounds concurrent runs (<= 0 selects runtime.NumCPU()).
	// Results are bit-identical for any value.
	Workers int
}

func (o CPMOptions) withDefaults() CPMOptions {
	if o.Runs <= 0 {
		o.Runs = 30
	}
	return o
}

// CPMArmOutcome is one policy's outcome in one run.
type CPMArmOutcome struct {
	// Warned reports whether the OBU braked at all.
	Warned bool
	// WarnLatencyMS is pedestrian-emergence → brake decision; -1 when
	// never warned.
	WarnLatencyMS float64
	// StopMargin is the distance short of the conflict point at the
	// end of the run (negative: the robot entered the crossing).
	StopMargin float64
	// Miss reports a separation below cpmMissDistance.
	Miss bool
	// CPMsDelivered and ObjectsFused count the OBU's collective
	// perception intake (zero in the baseline arm).
	CPMsDelivered uint64
	ObjectsFused  uint64
}

// CPMRunRow carries both arms of one seed.
type CPMRunRow struct {
	Seed     int64
	Baseline CPMArmOutcome
	CPM      CPMArmOutcome
}

// CPMArmStats aggregates one arm over the campaign.
type CPMArmStats struct {
	Name        string
	WarnedStops int
	Misses      int
	WarnLatency stats.Summary
	StopMargin  stats.Summary
}

// CPMResult is the campaign outcome.
type CPMResult struct {
	Runs          int
	Rows          []CPMRunRow
	Baseline, CPM CPMArmStats
}

// cpmRun simulates one seed's scenario under one policy. The outcome
// is a pure function of (seed, enableCPM): every random draw flows
// from named kernel streams, and the scenario jitters are drawn before
// any policy-dependent wiring.
func cpmRun(seed int64, enableCPM bool) (CPMArmOutcome, error) {
	out := CPMArmOutcome{WarnLatencyMS: -1}
	sc, err := labScene(seed)
	if err != nil {
		return out, err
	}
	kernel, frame := sc.Kernel, sc.Frame

	// Scenario jitters, identical across both arms of the seed.
	rng := kernel.Rand("cpm.scenario")
	emergeAt := 800*time.Millisecond + time.Duration(rng.Float64()*400)*time.Millisecond
	cruise := 1.4 + rng.Float64()*0.2
	arrivalOffset := rng.Float64()*0.6 - 0.3
	// Time the unbraked robot to reach the conflict point as the
	// pedestrian crosses the lane centreline.
	arrive := emergeAt.Seconds() + cpmPedStartX/cpmPedSpeed + arrivalOffset
	startY := cpmConflictY - cruise*arrive

	// Road users: the protagonist northbound on x = 0, the pedestrian
	// westbound on y = cpmConflictY once emerged.
	vehPos := geo.Point{X: 0, Y: startY}
	vehSpeed := cruise
	braking := false
	halted := false
	pedPos := geo.Point{X: cpmPedStartX, Y: cpmConflictY}
	emerged := false
	kernel.ScheduleFn(emergeAt, func() { emerged = true })

	obu, err := sc.Station(stack.Config{
		Name:      "obu",
		Role:      stack.RoleOBU,
		StationID: 2001,
		// Northbound along the lane.
		Mobility:  sc.Moving(0.53, 0.29, func() (geo.Point, float64, float64) { return vehPos, vehSpeed, 0 }),
		EnableCPM: enableCPM,
	})
	if err != nil {
		return out, err
	}
	rsu, err := sc.Station(stack.Config{
		Name:      "rsu",
		Role:      stack.RoleRSU,
		StationID: 1001,
		Mobility:  sc.At(geo.Point{X: 1.5, Y: 9.0}),
		EnableCPM: enableCPM,
	})
	if err != nil {
		return out, err
	}
	// The RSU's camera writes into its LDM in both arms.
	rsu.AttachLDM()
	obu.Start()
	rsu.Start()
	defer obu.Stop()
	defer rsu.Stop()

	// The corner camera watches the crossing the whole time; its
	// detections land in the RSU's LDM as first-hand perception. This
	// runs in BOTH arms — the policies differ only in what the RSU
	// does with its perception.
	// Mounted high above the corner, looking south over the whole
	// crossing path, so the pedestrian stays in frame from emergence
	// until well past the lane.
	camPos := geo.Point{X: 1.5, Y: 9.0}
	cam := track.Camera{
		Position: camPos,
		Facing:   math.Pi,
		FOV:      120 * math.Pi / 180,
		MaxRange: 12,
	}
	model := perception.DefaultModel()
	camRng := kernel.Rand("cpm.camera")
	kernel.Every(0, 250*time.Millisecond, func() {
		if !emerged || pedPos.X < -1.5 {
			return
		}
		p := pedPos
		det, ok := model.DetectPedestrian(cam.Sees(p), cam.DistanceTo(p), 10, camRng)
		if !ok {
			return
		}
		// Place the track along the true bearing at the estimated
		// distance, as the stereo pipeline would.
		toPed := p.Sub(cam.Position)
		est := cam.Position.Add(toPed.Scale(det.EstimatedDistance / toPed.Norm()))
		kernel.ScheduleFn(model.InferenceLatency(camRng), func() {
			rsu.LDM.IngestSensedObject("person", units.StationTypePedestrian,
				est, cpmPedSpeed, geo.Vector{X: -1}.Heading())
		})
	})

	// Conventional hazard service (both arms): one DENM the moment the
	// perceived person reaches the lane guard — the late warning.
	denmSent := false
	kernel.Every(0, 100*time.Millisecond, func() {
		if denmSent {
			return
		}
		o, ok := rsu.LDM.SensedObject("person")
		if !ok || o.Position.X > cpmLaneGuard {
			return
		}
		_, err := rsu.DEN.Trigger(den.EventRequest{
			EventType:       messages.EventType{CauseCode: messages.CauseHumanPresenceOnTheRoad},
			Position:        frame.ToGeodetic(geo.Point{X: 0, Y: cpmConflictY}),
			Quality:         3,
			RelevanceRadius: 50,
		})
		if err == nil {
			denmSent = true
		}
	})

	warn := func() {
		if braking {
			return
		}
		braking = true
		out.Warned = true
		out.WarnLatencyMS = ms(kernel.Now() - emergeAt)
	}
	obu.OnDENM = func(d *messages.DENM) {
		if d.Situation.EventType.CauseCode == messages.CauseHumanPresenceOnTheRoad {
			warn()
		}
	}

	// Kinematics and hazard monitor at 50 Hz.
	minSep := pedPos.DistanceTo(vehPos)
	const dt = 0.02
	kernel.Every(0, 20*time.Millisecond, func() {
		if emerged && pedPos.X > -3 {
			pedPos.X -= cpmPedSpeed * dt
		}
		if braking {
			vehSpeed -= cpmBrakeDecel * dt
			if vehSpeed <= 0 {
				vehSpeed = 0
				halted = true
			}
		}
		vehPos.Y += vehSpeed * dt
		if d := pedPos.DistanceTo(vehPos); d < minSep {
			minSep = d
		}
		// The CPM hazard monitor consults the fused LDM: a person
		// ahead of the robot who is inside the lane corridor, or
		// walking towards it, triggers the early brake.
		if enableCPM && !braking {
			for _, o := range obu.LDM.ObjectsWithin(vehPos, cpmWarnAhead) {
				if o.Source != ldm.SourceCPM || o.Classification != "person" {
					continue
				}
				if o.Position.Y-vehPos.Y <= 0 {
					continue
				}
				vx := geo.HeadingVector(o.HeadingRad).Scale(o.SpeedMS).X
				inCorridor := absf(o.Position.X) <= cpmCorridorHalf
				approaching := vx*o.Position.X < 0
				if inCorridor || approaching {
					warn()
					break
				}
			}
		}
	})

	kernel.RunUntil(30*time.Second, func() bool {
		if vehPos.Y > cpmConflictY+1.5 {
			return true
		}
		return halted && pedPos.X < -1.5
	})

	out.StopMargin = cpmConflictY - vehPos.Y
	out.Miss = minSep < cpmMissDistance
	_, _, fused, _ := obu.CPReceiverStats()
	out.CPMsDelivered = obu.DeliveredCPMs
	out.ObjectsFused = fused
	return out, nil
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// CPMCampaign runs the occluded-pedestrian comparison: each seed runs
// both arms, so the miss-rate difference is paired, not sampled.
func CPMCampaign(opt CPMOptions) (CPMResult, error) {
	opt = opt.withDefaults()
	res := CPMResult{Runs: opt.Runs}
	rows, err := campaign.Map(campaign.Options{Workers: opt.Workers}, opt.Runs, func(i int) (CPMRunRow, error) {
		seed := opt.BaseSeed + int64(i)*7919
		row := CPMRunRow{Seed: seed}
		base, err := cpmRun(seed, false)
		if err != nil {
			return row, fmt.Errorf("experiments: cpm baseline run %d: %w", i, err)
		}
		row.Baseline = base
		withCPM, err := cpmRun(seed, true)
		if err != nil {
			return row, fmt.Errorf("experiments: cpm run %d: %w", i, err)
		}
		row.CPM = withCPM
		return row, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	res.Baseline = summarizeCPMArm("CAM/DENM only", rows, func(r CPMRunRow) CPMArmOutcome { return r.Baseline })
	res.CPM = summarizeCPMArm("CPM enabled", rows, func(r CPMRunRow) CPMArmOutcome { return r.CPM })
	return res, nil
}

func summarizeCPMArm(name string, rows []CPMRunRow, pick func(CPMRunRow) CPMArmOutcome) CPMArmStats {
	st := CPMArmStats{Name: name}
	var lats, margins []float64
	for _, r := range rows {
		o := pick(r)
		if o.Warned && o.StopMargin > 0 {
			st.WarnedStops++
		}
		if o.Miss {
			st.Misses++
		}
		if o.WarnLatencyMS >= 0 {
			lats = append(lats, o.WarnLatencyMS)
		}
		margins = append(margins, o.StopMargin)
	}
	st.WarnLatency = stats.Summarize(lats)
	st.StopMargin = stats.Summarize(margins)
	return st
}

// FormatCPM renders the paired comparison.
func FormatCPM(r CPMResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CPM-1: occluded pedestrian crossing, %d paired runs per arm\n", r.Runs)
	fmt.Fprintf(&b, "  %-14s %12s %8s %18s %18s\n",
		"arm", "warned-stop", "miss", "warn lat ms", "stop margin m")
	for _, arm := range []CPMArmStats{r.Baseline, r.CPM} {
		fmt.Fprintf(&b, "  %-14s %9d/%d %5d/%d %9.0f/%-7.0f %9.2f/%-7.2f\n",
			arm.Name, arm.WarnedStops, r.Runs, arm.Misses, r.Runs,
			arm.WarnLatency.Mean, arm.WarnLatency.Max,
			arm.StopMargin.Mean, arm.StopMargin.Min)
	}
	var fused uint64
	for _, row := range r.Rows {
		fused += row.CPM.ObjectsFused
	}
	fmt.Fprintf(&b, "  CPM arm fused %d remote objects across the campaign\n", fused)
	b.WriteString("Shape: the DENM-only RSU warns when the pedestrian reaches the lane —\n")
	b.WriteString("inside the robot's stopping distance; sharing the perceived object in\n")
	b.WriteString("CPMs moves the warning metres (seconds) earlier and the misses vanish.\n")
	return b.String()
}
