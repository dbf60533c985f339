package core

import (
	"fmt"
	"time"

	"itsbed/internal/geo"
	"itsbed/internal/trace"
	"itsbed/internal/vehicle"
)

// Outcome classifies one run for the resilience analysis.
type Outcome int

// Run outcomes.
const (
	// OutcomeMiss: the vehicle never stopped — it ran through the
	// hazard.
	OutcomeMiss Outcome = iota
	// OutcomeWarnedStop: the vehicle stopped on the network warning
	// path (received DENM, or a direct onboard stop).
	OutcomeWarnedStop
	// OutcomeFailSafeStop: the network watchdog braked autonomously
	// after connectivity went stale.
	OutcomeFailSafeStop
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeWarnedStop:
		return "warned-stop"
	case OutcomeFailSafeStop:
		return "failsafe-stop"
	default:
		return "miss"
	}
}

// Result is the outcome of one emergency-braking scenario run.
type Result struct {
	// Run holds the raw step timestamps.
	Run *trace.Run
	// Intervals is the Table II decomposition (steps 2→3, 3→4, 4→5,
	// total 2→5).
	Intervals trace.Intervals
	// BrakingDistance is Table III's quantity: the distance travelled
	// from the detection (step 2) to the halt — the paper derives it
	// from the tape measurement between the camera lens and the stop
	// sign on the resting vehicle.
	BrakingDistance float64
	// DistanceTravelled is the straight-line displacement between the
	// detection stamp and the halt (equals BrakingDistance on a
	// straight approach).
	DistanceTravelled float64
	// FinalCameraDistance is the vehicle's resting distance to the
	// lens.
	FinalCameraDistance float64
	// ApproachSpeed is the vehicle speed when the stop was commanded.
	ApproachSpeed float64
	// Video is the Fig. 10 style frame analysis.
	Video VideoAnalysis
	// Stopped reports whether the vehicle halted before the horizon.
	Stopped bool
	// StopCause says what triggered the stop (vehicle.StopCauseDENM,
	// StopCauseWatchdog or StopCauseDirect); empty when no stop was
	// issued.
	StopCause string
	// Outcome classifies the run: warned stop, fail-safe stop, or miss.
	Outcome Outcome
	// Collision reports whether the vehicle reached the camera
	// position (it ran through the hazard without stopping).
	Collision bool
	// Snapshot is the end-of-run copy of the testbed's Sink: its
	// Metrics, its Spans (empty unless the testbed was built with a
	// tracer) and its Flight black box.
	trace.Snapshot
}

// VideoAnalysis is the Fig. 10 measurement: the detection-to-stop
// period read off the road-side camera recording, quantised to the
// camera's frame rate.
type VideoAnalysis struct {
	// CrossingFrameTime is the capture time of the first frame with
	// the vehicle at or inside the action point.
	CrossingFrameTime time.Duration
	// CrossingFrameDistance is the ground-truth distance in that frame
	// (the paper's "crosses the 1.52 m action point and is detected at
	// 1.45 m").
	CrossingFrameDistance float64
	// StopFrameTime is the capture time of the first frame with the
	// vehicle at rest.
	StopFrameTime time.Duration
	// DetectionToStop is the difference, i.e. the paper's ~200 ms
	// reading.
	DetectionToStop time.Duration
	// Valid reports whether both frames were found.
	Valid bool
}

// RunScenario starts all components, lets the vehicle approach, and
// runs until it halts (or the horizon passes). The testbed is
// single-use: create a fresh one per run (runs are cheap).
func (tb *Testbed) RunScenario(horizon time.Duration) (*Result, error) {
	if horizon <= 0 {
		horizon = 30 * time.Second
	}
	tb.start()
	defer tb.stop()
	video := tb.startVideoRecorder()
	defer video.Stop()

	speedAtStop := 0.0
	tb.Vehicle.OnStopCommand = wrapStamp(tb.Vehicle.OnStopCommand, func() {
		speedAtStop = tb.Vehicle.Body.State().Speed
	})

	if tb.Kernel.RunUntil(horizon, tb.approachOver) {
		// Keep the recording (and the simulated world) running briefly
		// so the video captures the stop frame, as the experimenters'
		// post-hoc frame inspection requires.
		tb.Kernel.Run(tb.Kernel.Now() + 800*time.Millisecond)
	}

	res := &Result{
		Run:           tb.Run,
		Stopped:       tb.Vehicle.Halted(),
		StopCause:     tb.Vehicle.StopCause(),
		ApproachSpeed: speedAtStop,
	}
	switch {
	case res.Stopped && res.StopCause == vehicle.StopCauseWatchdog:
		res.Outcome = OutcomeFailSafeStop
	case res.Stopped:
		res.Outcome = OutcomeWarnedStop
	default:
		res.Outcome = OutcomeMiss
	}
	st := tb.Vehicle.Body.State()
	res.FinalCameraDistance = tb.Layout.Camera.DistanceTo(st.Position)
	res.Collision = res.FinalCameraDistance < 0.15 ||
		(!res.Stopped && tb.Layout.Camera.DistanceTo(st.Position) < tb.Layout.ActionPointDistance)
	if tb.Run.Complete() {
		iv, err := tb.Run.TableIIIntervals()
		if err != nil {
			return nil, fmt.Errorf("core: intervals: %w", err)
		}
		res.Intervals = iv
	}
	if res.Stopped {
		res.DistanceTravelled = tb.detectionPos.DistanceTo(tb.haltPos)
		res.BrakingDistance = res.DistanceTravelled
	}
	res.Video = tb.analyzeVideo()
	res.Snapshot = tb.Sink.Snapshot()
	return res, nil
}

// start launches every component.
func (tb *Testbed) start() {
	tb.RSU.Start()
	tb.OBU.Start()
	for _, bg := range tb.background {
		bg.Start()
	}
	tb.Camera.Start()
	tb.Vehicle.Start()
	// The observers run after each physics step, the only events that
	// move the vehicle. Steps fall on whole milliseconds, so the step-1
	// stamp lands on the instant a millisecond sampler would see the
	// crossing, like the experimenters' frame inspection.
	tb.ended = tb.approachEnded(tb.Vehicle.Body.State().Position)
	tb.Vehicle.OnStep = tb.observeStep
}

// observeStep stamps step 1 the first time the vehicle is within the
// action-point distance of the camera, and notes when the approach
// has ended.
func (tb *Testbed) observeStep() {
	pos := tb.Vehicle.Body.State().Position
	if !tb.Run.Stamped(trace.StepActionPoint) &&
		tb.Layout.Camera.Position.DistanceAtMost(pos, tb.Layout.ActionPointDistance) {
		tb.Run.Stamp(trace.StepActionPoint, tb.Kernel.Now())
	}
	if !tb.ended {
		tb.ended = tb.approachEnded(pos)
	}
}

// approachEnded reports whether a vehicle at pos has passed the camera
// (a collision) or run off the line: baseline runs may never stop.
func (tb *Testbed) approachEnded(pos geo.Point) bool {
	return tb.Layout.Camera.Position.DistanceLess(pos, 0.10) ||
		tb.Layout.Line.AtEnd(pos, 1e-6)
}

// approachOver is RunScenario's stop predicate: the vehicle halted or
// the approach ended.
func (tb *Testbed) approachOver() bool { return tb.Vehicle.Halted() || tb.ended }

// stop halts every component.
func (tb *Testbed) stop() {
	tb.Vehicle.Stop()
	tb.Camera.Stop()
	tb.RSU.Stop()
	tb.OBU.Stop()
	for _, bg := range tb.background {
		bg.Stop()
	}
	tb.Vehicle.OnStep = nil
}

// analyzeVideo extracts the Fig. 10 reading from the frame log.
func (tb *Testbed) analyzeVideo() VideoAnalysis {
	var va VideoAnalysis
	for _, f := range tb.frameLog {
		if !va.Valid && va.CrossingFrameTime == 0 &&
			f.truthDistance > 0 && f.truthDistance <= tb.Layout.ActionPointDistance {
			va.CrossingFrameTime = f.captureTime
			va.CrossingFrameDistance = f.truthDistance
		}
		if va.CrossingFrameTime != 0 && f.stopped {
			va.StopFrameTime = f.captureTime
			va.DetectionToStop = va.StopFrameTime - va.CrossingFrameTime
			va.Valid = true
			break
		}
	}
	return va
}

// wrapStamp composes vehicle stop-command hooks.
func wrapStamp(prev func(time.Duration), fn func()) func(time.Duration) {
	return func(t time.Duration) {
		if prev != nil {
			prev(t)
		}
		fn()
	}
}
