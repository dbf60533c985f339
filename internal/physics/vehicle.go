// Package physics models the longitudinal and lateral dynamics of the
// 1/10-scale robotic vehicle (Traxxas Rally chassis of the F1/10
// platform): a kinematic bicycle model for steering, a first-order
// drivetrain responding to ESC PWM commands, and the coast-down
// braking behaviour the testbed uses — the emergency "brake" cuts
// power to the wheels and rolling/tyre friction stops the car.
package physics

import (
	"math"

	"itsbed/internal/geo"
)

// Params are the physical parameters of the scale vehicle.
type Params struct {
	// Mass in kg (F1/10 build with Jetson TX2 and battery: ~3.5 kg).
	Mass float64
	// Wheelbase in metres (Traxxas Rally 1/10: 0.324 m).
	Wheelbase float64
	// Length and Width of the body in metres (the paper gives 0.53 m
	// length).
	Length float64
	Width  float64
	// MaxSpeed the drivetrain can reach in m/s.
	MaxSpeed float64
	// MotorTimeConstant of the first-order speed response in seconds.
	MotorTimeConstant float64
	// BrakeDecel is the deceleration when power is cut, from tyre
	// rolling resistance and drivetrain drag (µ·g effective).
	BrakeDecel float64
	// MaxSteeringAngle in radians at the front wheels.
	MaxSteeringAngle float64
	// SteeringRate limits servo slew in rad/s.
	SteeringRate float64
}

// DefaultF110 returns parameters calibrated for the paper's vehicle.
func DefaultF110() Params {
	return Params{
		Mass:              3.5,
		Wheelbase:         0.324,
		Length:            0.53,
		Width:             0.29,
		MaxSpeed:          16.7, // ~60 km/h top speed
		MotorTimeConstant: 0.35,
		BrakeDecel:        4.1,
		MaxSteeringAngle:  0.43, // ~25°
		SteeringRate:      6.0,
	}
}

// State is the vehicle's rigid-body state on the local plane.
type State struct {
	Position geo.Point
	// Heading is the compass heading of the body in radians.
	Heading float64
	// Speed along the heading in m/s (non-negative; the testbed never
	// reverses).
	Speed float64
	// Steering is the current front wheel angle in radians.
	Steering float64
	// Accel is the current longitudinal acceleration in m/s².
	Accel float64
	// Odometer accumulates travelled distance in metres.
	Odometer float64
}

// Body simulates one vehicle. Advance with Step.
type Body struct {
	params Params
	state  State
	// commandedSpeed is the drivetrain setpoint from the ESC duty.
	commandedSpeed float64
	// commandedSteering is the servo setpoint.
	commandedSteering float64
	// powerCut latches the emergency-stop state: drivetrain force is zero
	// and the vehicle coasts down under BrakeDecel.
	powerCut bool
}

// NewBody places a vehicle at the given pose, at rest.
func NewBody(params Params, pos geo.Point, heading float64) *Body {
	return &Body{
		params: params,
		state:  State{Position: pos, Heading: heading},
	}
}

// State returns a copy of the current state.
func (b *Body) State() State { return b.state }

// SetCommandedSpeed sets the drivetrain setpoint in m/s (clamped to
// [0, MaxSpeed]). Ignored while power is cut.
func (b *Body) SetCommandedSpeed(v float64) {
	if v < 0 {
		v = 0
	}
	if v > b.params.MaxSpeed {
		v = b.params.MaxSpeed
	}
	b.commandedSpeed = v
}

// SetCommandedSteering sets the servo setpoint in radians (clamped).
func (b *Body) SetCommandedSteering(a float64) {
	if a > b.params.MaxSteeringAngle {
		a = b.params.MaxSteeringAngle
	}
	if a < -b.params.MaxSteeringAngle {
		a = -b.params.MaxSteeringAngle
	}
	b.commandedSteering = a
}

// CutPower latches the emergency stop: the ESC output is forced to
// zero and the vehicle coasts down to a halt.
func (b *Body) CutPower() {
	b.powerCut = true
	b.commandedSpeed = 0
}

// PowerCut reports whether the emergency latch is engaged.
func (b *Body) PowerCut() bool { return b.powerCut }

// Stopped reports whether the vehicle is at rest.
func (b *Body) Stopped() bool { return b.state.Speed < 1e-3 }

// Step advances the simulation by dt seconds using the kinematic
// bicycle model and the first-order drivetrain.
func (b *Body) Step(dt float64) {
	if dt <= 0 {
		return
	}
	s := &b.state

	// Servo slew towards the commanded steering angle.
	maxDelta := b.params.SteeringRate * dt
	delta := b.commandedSteering - s.Steering
	if delta > maxDelta {
		delta = maxDelta
	}
	if delta < -maxDelta {
		delta = -maxDelta
	}
	s.Steering += delta

	// Longitudinal dynamics.
	prevSpeed := s.Speed
	if b.powerCut {
		s.Speed -= b.params.BrakeDecel * dt
		if s.Speed < 0 {
			s.Speed = 0
		}
	} else {
		// First-order response to the ESC setpoint.
		alpha := dt / b.params.MotorTimeConstant
		if alpha > 1 {
			alpha = 1
		}
		s.Speed += (b.commandedSpeed - s.Speed) * alpha
	}
	if dt > 0 {
		s.Accel = (s.Speed - prevSpeed) / dt
	}

	// Kinematic bicycle model: the heading rate is v·tan(δ)/L.
	if s.Speed > 0 {
		yawRate := s.Speed * math.Tan(s.Steering) / b.params.Wheelbase
		s.Heading = geo.NormalizeHeading(s.Heading + yawRate*dt)
		dist := s.Speed * dt
		dir := geo.HeadingVector(s.Heading)
		s.Position = s.Position.Add(dir.Scale(dist))
		s.Odometer += dist
	}
}

// YawRate returns the current yaw rate in rad/s.
func (b *Body) YawRate() float64 {
	if b.state.Speed == 0 {
		return 0
	}
	return b.state.Speed * math.Tan(b.state.Steering) / b.params.Wheelbase
}
