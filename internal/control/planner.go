package control

import (
	"math"

	"itsbed/internal/vision"
)

// Command is one motion command to the actuation layer.
type Command struct {
	// SteeringAngle in radians, positive right (clockwise yaw).
	SteeringAngle float64
	// SpeedMS setpoint.
	SpeedMS float64
	// EmergencyStop cuts power to the wheels regardless of the other
	// fields.
	EmergencyStop bool
}

// PlannerConfig parameterises the motion planner.
type PlannerConfig struct {
	// CruiseSpeed the planner holds while following the line.
	CruiseSpeed float64
	// MaxSteering clamp in radians.
	MaxSteering float64
	// LostLineTimeoutCycles: after this many consecutive cycles
	// without a detection the planner commands a stop.
	LostLineTimeoutCycles int
}

// DefaultPlanner matches the testbed's approach runs (~1.5 m/s).
func DefaultPlanner() PlannerConfig {
	return PlannerConfig{
		CruiseSpeed:           1.5,
		MaxSteering:           0.43,
		LostLineTimeoutCycles: 10,
	}
}

// Planner converts line detections into motion commands. It owns the
// PID steering controller and the emergency-stop latch fed by the
// message handler when a DENM arrives (Fig. 3's Motion Planner).
type Planner struct {
	cfg  PlannerConfig
	pid  PID
	lost int
	// emergency latches once an emergency stop is requested.
	emergency bool
}

// NewPlanner builds a planner with the given steering PID.
func NewPlanner(cfg PlannerConfig, pid PID) *Planner {
	return &Planner{cfg: cfg, pid: pid}
}

// RequestEmergencyStop latches the stop procedure: every subsequent
// command carries EmergencyStop until Reset.
func (p *Planner) RequestEmergencyStop() { p.emergency = true }

// Reset clears the latch and the controller state (between runs).
func (p *Planner) Reset() {
	p.emergency = false
	p.lost = 0
	p.pid.Reset()
}

// Plan produces the next command from a detection and the elapsed
// control period dt (seconds).
func (p *Planner) Plan(det vision.Detection, dt float64) Command {
	if p.emergency {
		return Command{EmergencyStop: true}
	}
	if !det.Found {
		p.lost++
		if p.lost >= p.cfg.LostLineTimeoutCycles {
			return Command{SpeedMS: 0}
		}
		// Hold the last steering briefly (PID state retains lastErr).
		return Command{SpeedMS: p.cfg.CruiseSpeed}
	}
	p.lost = 0
	// Aim-point steering: the error combines the near-line lateral
	// offset and the bearing to the far target point, both expressed
	// in the vehicle frame with positive to the right. Steering is
	// positive-right (clockwise yaw), so the controller steers toward
	// the line.
	bearing := math.Atan2(det.TargetLateral, det.TargetForward)
	err := 0.6*det.LateralError + 0.8*bearing
	angle := p.pid.Update(err, dt)
	if angle > p.cfg.MaxSteering {
		angle = p.cfg.MaxSteering
	}
	if angle < -p.cfg.MaxSteering {
		angle = -p.cfg.MaxSteering
	}
	return Command{SteeringAngle: angle, SpeedMS: p.cfg.CruiseSpeed}
}
