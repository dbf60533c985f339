// Package vehicle assembles the 1/10-scale autonomous robotic vehicle
// of the paper (CopaDrive / F1/10): the physics body, the Fig. 6 line
// following chain (ZED frame → Canny → probabilistic Hough → motion
// planner → PID → PWM), the ECU's actuation path through USART and the
// Teensy MCU, and the OBU message handler — a script that polls the
// OpenC2X HTTP API for received DENMs and cuts power to the wheels
// when one arrives.
package vehicle

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/control"
	"itsbed/internal/geo"
	"itsbed/internal/its/facilities/ca"
	"itsbed/internal/openc2x"
	"itsbed/internal/perception"
	"itsbed/internal/physics"
	"itsbed/internal/sim"
	"itsbed/internal/track"
	"itsbed/internal/vision"
)

// Config parameterises one vehicle.
type Config struct {
	Name   string
	Params physics.Params
	Layout track.Layout
	// StartArc is the initial position along the guide line in metres.
	StartArc float64
	// CruiseSpeed for the approach run.
	CruiseSpeed float64
	// ControlPeriod of the line-following loop (ZED stream rate).
	ControlPeriod time.Duration
	// PollInterval of the DENM poller script.
	PollInterval time.Duration
	// PollPhase offsets the first poll within the interval; negative
	// selects a random phase.
	PollPhase time.Duration
	// UseVision selects the full image pipeline; when false the line
	// follower runs on ground-truth geometry (fast mode for large
	// experiment sweeps).
	UseVision bool
	// Dressing is the appearance configuration for the road-side
	// detector (Fig. 7).
	Dressing perception.Dressing
	// NTP is the Jetson's clock-sync error model.
	NTP clock.NTPModel
	// Actuation is the USART/Teensy/PWM latency model.
	Actuation control.ActuationLatency
	// Watchdog turns on the network fail-safe: it monitors V2X
	// heartbeat freshness (CAM/DENM receptions observed through the
	// OBU poll path) and, when connectivity goes stale, degrades to an
	// autonomous time-to-collision emergency brake against the known
	// action point. Off by default, which preserves the paper's pure
	// network-aided behaviour.
	Watchdog bool
}

// physicsStep is the dynamics integrator's step. It is a whole number
// of milliseconds, so every step lands on a millisecond instant.
const physicsStep = 2 * time.Millisecond

// The network watchdog's constants.
const (
	// watchdogStaleAfter is the heartbeat age beyond which connectivity
	// counts as lost (the RSU sends CAMs at 1 Hz).
	watchdogStaleAfter = 1500 * time.Millisecond
	// watchdogTTC: in degraded mode, the brake fires when the time to
	// reach the action point drops to this.
	watchdogTTC = 1200 * time.Millisecond
	// watchdogPeriod is the watchdog loop's tick.
	watchdogPeriod = 25 * time.Millisecond
)

// StopCause values reported by Vehicle.StopCause.
const (
	// StopCauseDENM: the stop came from a received DENM (warned stop).
	StopCauseDENM = "denm"
	// StopCauseWatchdog: the network watchdog braked autonomously
	// (fail-safe stop).
	StopCauseWatchdog = "watchdog"
	// StopCauseDirect: EmergencyStop was invoked directly (onboard
	// system or planner).
	StopCauseDirect = "direct"
)

// DefaultConfig returns the paper's approach-run configuration.
func DefaultConfig(layout track.Layout) Config {
	return Config{
		Name:          "vehicle",
		Params:        physics.DefaultF110(),
		Layout:        layout,
		StartArc:      0,
		CruiseSpeed:   1.5,
		ControlPeriod: 33 * time.Millisecond,
		PollInterval:  35 * time.Millisecond,
		PollPhase:     -1,
		UseVision:     true,
		Dressing:      perception.DressingStopSign,
		NTP:           clock.DefaultLANNTP(),
		Actuation:     control.DefaultActuation(),
	}
}

// Vehicle is one assembled robotic vehicle.
type Vehicle struct {
	cfg    Config
	kernel *sim.Kernel
	rng    *rand.Rand

	Body  *physics.Body
	Clock *clock.NTPClock

	planner  *control.Planner
	detector *vision.Detector
	obu      *openc2x.SimNode

	physTicker *sim.Ticker
	ctrlTicker *sim.Ticker
	pollTicker *sim.Ticker
	wdTicker   *sim.Ticker

	stopIssued   bool
	haltObserved bool
	stopCause    string

	// lastFresh is the latest V2X heartbeat (OBU reception time) the
	// poller has confirmed; degraded latches while it is stale.
	lastFresh time.Duration
	degraded  bool
	// actionArc caches the action point's arc position for the degraded
	// TTC check (-1 when the layout has none).
	actionArc float64

	// OnStopCommand fires when the stop command is written towards the
	// actuators, with the vehicle-clock timestamp (the paper's step 5).
	OnStopCommand func(vehicleClock time.Duration)
	// OnHalt fires once when the vehicle comes to rest after a stop
	// command, with true (video) time (the paper's step 6).
	OnHalt func(trueTime time.Duration)
	// OnStep, if set, runs at the end of every physics step, after the
	// halt check. Steps are the only events that move the vehicle.
	OnStep func()

	// DetectionCycles counts control-loop iterations.
	DetectionCycles uint64
	// LostLineCycles counts iterations without a line detection.
	LostLineCycles uint64
	// PollsIssued counts DENM poll requests.
	PollsIssued uint64
	// DENMsHandled counts DENMs consumed by the message handler.
	DENMsHandled uint64
	// PollFailures counts OBU polls that failed (node down, timeout,
	// server error) — only observable with the watchdog enabled.
	PollFailures uint64
	// WatchdogTrips counts transitions into degraded mode.
	WatchdogTrips uint64

	// OnWatchdogTrip, if set, observes each transition into degraded
	// mode with the kernel time (core threads it into fault metrics).
	OnWatchdogTrip func(now time.Duration)
}

// New places a vehicle on the layout at StartArc, at rest, facing
// along the line.
func New(kernel *sim.Kernel, cfg Config) (*Vehicle, error) {
	if cfg.Layout.Line == nil {
		return nil, fmt.Errorf("vehicle: layout has no guide line")
	}
	if cfg.ControlPeriod <= 0 || cfg.PollInterval <= 0 {
		return nil, fmt.Errorf("vehicle: non-positive period in config")
	}
	pos := cfg.Layout.Line.PointAt(cfg.StartArc)
	heading := cfg.Layout.Line.HeadingAt(cfg.StartArc)
	v := &Vehicle{
		cfg:    cfg,
		kernel: kernel,
		rng:    kernel.Rand("vehicle." + cfg.Name),
		Body:   physics.NewBody(cfg.Params, pos, heading),
	}
	v.Clock = clock.NewNTP(clock.SourceFunc(kernel.Now), cfg.NTP, kernel.Rand("clock.vehicle."+cfg.Name))
	pid := control.DefaultSteeringPID()
	pcfg := control.DefaultPlanner()
	pcfg.CruiseSpeed = cfg.CruiseSpeed
	pcfg.MaxSteering = cfg.Params.MaxSteeringAngle
	v.planner = control.NewPlanner(pcfg, pid)
	if cfg.UseVision {
		v.detector = vision.NewDetector(kernel.Source("vision." + cfg.Name))
	}
	return v, nil
}

// AttachOBU connects the vehicle's message handler to its OpenC2X OBU.
func (v *Vehicle) AttachOBU(obu *openc2x.SimNode) { v.obu = obu }

// Mobility adapts the vehicle for the ITS stack (radio position and
// CAM state).
func (v *Vehicle) Mobility() VehicleMobility { return VehicleMobility{v} }

// VehicleMobility implements stack.Mobility for a Vehicle.
type VehicleMobility struct{ v *Vehicle }

// Position implements stack.Mobility.
func (m VehicleMobility) Position() geo.Point { return m.v.Body.State().Position }

// VehicleState implements stack.Mobility.
func (m VehicleMobility) VehicleState() ca.VehicleState {
	st := m.v.Body.State()
	return ca.VehicleState{
		Position:    m.v.cfg.Layout.Frame.ToGeodetic(st.Position),
		SpeedMS:     st.Speed,
		HeadingRad:  st.Heading,
		AccelMS2:    st.Accel,
		YawRateDegS: m.v.Body.YawRate() * 180 / math.Pi,
		Length:      m.v.cfg.Params.Length,
		Width:       m.v.cfg.Params.Width,
	}
}

// Dressing returns the configured appearance.
func (v *Vehicle) Dressing() perception.Dressing { return v.cfg.Dressing }

// Start launches the physics, control and poller loops.
func (v *Vehicle) Start() {
	if v.physTicker != nil {
		return
	}
	v.Body.SetCommandedSpeed(v.cfg.CruiseSpeed)
	v.physTicker = v.kernel.Every(0, physicsStep, v.physicsTick)
	v.ctrlTicker = v.kernel.Every(v.cfg.ControlPeriod, v.cfg.ControlPeriod, v.controlTick)
	if v.obu != nil {
		phase := v.cfg.PollPhase
		if phase < 0 {
			phase = time.Duration(v.rng.Int63n(int64(v.cfg.PollInterval)))
		}
		v.pollTicker = v.kernel.Every(phase, v.cfg.PollInterval, v.pollOBU)
		if v.cfg.Watchdog {
			// Connectivity counts as fresh at launch: the watchdog only
			// trips after a genuine silence interval.
			v.lastFresh = v.kernel.Now()
			v.actionArc = -1
			if arc, ok := v.cfg.Layout.ActionPointArc(); ok {
				v.actionArc = arc
			}
			v.wdTicker = v.kernel.Every(watchdogPeriod, watchdogPeriod, v.watchdogTick)
		}
	}
}

// Stop halts all loops.
func (v *Vehicle) Stop() {
	for _, t := range []*sim.Ticker{v.physTicker, v.ctrlTicker, v.pollTicker, v.wdTicker} {
		if t != nil {
			t.Stop()
		}
	}
	v.physTicker, v.ctrlTicker, v.pollTicker, v.wdTicker = nil, nil, nil, nil
}

func (v *Vehicle) physicsTick() {
	v.Body.Step(physicsStep.Seconds())
	if v.stopIssued && !v.haltObserved && v.Body.PowerCut() && v.Body.Stopped() {
		v.haltObserved = true
		if v.OnHalt != nil {
			v.OnHalt(v.kernel.Now())
		}
	}
	if v.OnStep != nil {
		v.OnStep()
	}
}

func (v *Vehicle) controlTick() {
	v.DetectionCycles++
	st := v.Body.State()
	var det vision.Detection
	if v.cfg.UseVision {
		det = v.detector.Detect(v.cfg.Layout.Line, st.Position, st.Heading)
	} else {
		det = v.groundTruthDetection(st)
	}
	if !det.Found {
		v.LostLineCycles++
	}
	cmd := v.planner.Plan(det, v.cfg.ControlPeriod.Seconds())
	v.applyCommand(cmd)
}

// groundTruthDetection emulates the vision output from exact geometry:
// the target is the point 0.8 m ahead along the line, in vehicle frame.
func (v *Vehicle) groundTruthDetection(st physics.State) vision.Detection {
	line := v.cfg.Layout.Line
	s, lat := line.Project(st.Position)
	const lookahead = 0.8
	target := line.PointAt(s + lookahead)
	d := target.Sub(st.Position)
	// Rotate into the vehicle frame (heading 0 = +Y).
	sinH, cosH := math.Sin(st.Heading), math.Cos(st.Heading)
	fwd := d.X*sinH + d.Y*cosH
	latT := d.X*cosH - d.Y*sinH
	if fwd <= 0 {
		return vision.Detection{}
	}
	// The vision pipeline reports where the LINE is in the vehicle
	// frame (positive right); the projection gives where the vehicle
	// is relative to the line, so the sign flips.
	return vision.Detection{
		Found:         true,
		TargetForward: fwd,
		TargetLateral: latT,
		LateralError:  -lat,
		Segments:      1,
	}
}

func (v *Vehicle) applyCommand(cmd control.Command) {
	if cmd.EmergencyStop {
		v.issueEmergencyStop()
		return
	}
	if v.stopIssued {
		return
	}
	// Regular commands take the same USART path; the latency is small
	// compared to the control period, so they apply after the serial
	// delay only.
	delay := v.cfg.Actuation.SerialDelay()
	steering, speed := cmd.SteeringAngle, cmd.SpeedMS
	v.kernel.ScheduleFn(delay, func() {
		if v.stopIssued {
			return
		}
		v.Body.SetCommandedSteering(steering)
		v.Body.SetCommandedSpeed(speed)
	})
}

// issueEmergencyStop is the planner-path stop (cmd.EmergencyStop).
func (v *Vehicle) issueEmergencyStop() { v.issueStop(StopCauseDirect) }

// issueStop sends the stop command to the actuators exactly once: the
// command is stamped at the USART write (the paper's step 5) and the
// physical power cut lands after the modeled actuation latency. The
// first caller's cause wins and is reported by StopCause.
func (v *Vehicle) issueStop(cause string) {
	if v.stopIssued {
		return
	}
	v.stopIssued = true
	v.stopCause = cause
	v.planner.RequestEmergencyStop()
	if v.OnStopCommand != nil {
		v.OnStopCommand(v.Clock.Now())
	}
	lat := v.cfg.Actuation.Sample(v.rng.Float64(), v.rng.Float64())
	v.kernel.ScheduleFn(lat, func() {
		v.Body.CutPower()
	})
}

// pollOBU is the Python script of the paper: POST /request_denm; any
// returned DENM interrupts power to the wheels.
func (v *Vehicle) pollOBU() {
	if v.stopIssued {
		return
	}
	v.PollsIssued++
	if !v.cfg.Watchdog {
		v.obu.RequestDENM(v.handleBatch)
		return
	}
	// With the watchdog on, the script distinguishes failed polls: an
	// error leaves the heartbeat stale instead of being silently eaten.
	v.obu.RequestDENMResult(func(batch []openc2x.ReceivedDENM, err error) {
		if err != nil {
			v.PollFailures++
			return
		}
		if hb := v.obu.LastHeard(); hb > v.lastFresh {
			v.lastFresh = hb
		}
		v.handleBatch(batch)
	})
}

// handleBatch consumes one poll response.
func (v *Vehicle) handleBatch(batch []openc2x.ReceivedDENM) {
	if len(batch) == 0 {
		return
	}
	v.DENMsHandled += uint64(len(batch))
	// Message handler → motion planner → stop procedure. The
	// script reacts directly, without waiting for the control
	// loop, matching the paper's integration; parsing the HTTP
	// response and dispatching the stop costs a couple of
	// milliseconds of interpreter time.
	proc := 9*time.Millisecond + time.Duration(v.rng.Int63n(int64(6*time.Millisecond))) - 3*time.Millisecond
	v.kernel.ScheduleFn(proc, func() { v.issueStop(StopCauseDENM) })
}

// watchdogTick evaluates heartbeat freshness and, in degraded mode,
// performs the autonomous TTC-based brake check against the action
// point. Recovered connectivity (a fresh heartbeat after a node
// restart) clears the degraded latch.
func (v *Vehicle) watchdogTick() {
	if v.stopIssued {
		return
	}
	now := v.kernel.Now()
	if now-v.lastFresh <= watchdogStaleAfter {
		v.degraded = false
		return
	}
	if !v.degraded {
		v.degraded = true
		v.WatchdogTrips++
		if v.OnWatchdogTrip != nil {
			v.OnWatchdogTrip(now)
		}
	}
	if v.actionArc < 0 {
		return
	}
	st := v.Body.State()
	if st.Speed <= 0.05 {
		return
	}
	arc, _ := v.cfg.Layout.Line.Project(st.Position)
	remaining := v.actionArc - arc
	if remaining < 0 {
		remaining = 0
	}
	ttc := time.Duration(remaining / st.Speed * float64(time.Second))
	if ttc <= watchdogTTC {
		v.issueStop(StopCauseWatchdog)
	}
}

// EmergencyStop triggers the stop procedure directly, as an onboard
// system (e.g. a LiDAR-based AEB baseline) would, bypassing the
// network path. Idempotent.
func (v *Vehicle) EmergencyStop() { v.issueEmergencyStop() }

// StopIssued reports whether the emergency stop was triggered.
func (v *Vehicle) StopIssued() bool { return v.stopIssued }

// StopCause reports what triggered the stop (StopCauseDENM,
// StopCauseWatchdog or StopCauseDirect); empty while no stop was
// issued.
func (v *Vehicle) StopCause() string { return v.stopCause }

// Halted reports whether the vehicle has come to rest after a stop.
func (v *Vehicle) Halted() bool { return v.haltObserved }

// Reset returns the vehicle to the start of the line for another run.
func (v *Vehicle) Reset() {
	v.Stop()
	pos := v.cfg.Layout.Line.PointAt(v.cfg.StartArc)
	heading := v.cfg.Layout.Line.HeadingAt(v.cfg.StartArc)
	v.Body = physics.NewBody(v.cfg.Params, pos, heading)
	v.planner.Reset()
	v.stopIssued = false
	v.haltObserved = false
	v.stopCause = ""
	v.degraded = false
	v.lastFresh = 0
}
