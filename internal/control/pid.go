// Package control implements the vehicle's control chain from Fig. 6:
// the PID steering controller, the motion planner that converts
// detected line coordinates into steering and speed commands, and the
// actuation path — commands travel over USART to the Teensy MCU, which
// produces the quantised PWM signals driving the ESC and the steering
// servo.
package control

import "time"

// PID is a discrete proportional-integral-derivative controller with
// output clamping and integral anti-windup.
type PID struct {
	Kp, Ki, Kd float64
	// OutMin and OutMax clamp the output.
	OutMin, OutMax float64
	// IntegralLimit bounds the integral term magnitude (anti-windup);
	// zero disables the bound.
	IntegralLimit float64

	integral float64
	lastErr  float64
	hasLast  bool
}

// Update advances the controller with the current error and time step
// and returns the clamped output.
func (p *PID) Update(err, dt float64) float64 {
	if dt <= 0 {
		return p.clamp(p.Kp * err)
	}
	p.integral += err * dt
	if p.IntegralLimit > 0 {
		if p.integral > p.IntegralLimit {
			p.integral = p.IntegralLimit
		}
		if p.integral < -p.IntegralLimit {
			p.integral = -p.IntegralLimit
		}
	}
	var deriv float64
	if p.hasLast {
		deriv = (err - p.lastErr) / dt
	}
	p.lastErr = err
	p.hasLast = true
	return p.clamp(p.Kp*err + p.Ki*p.integral + p.Kd*deriv)
}

// Reset clears the controller state.
func (p *PID) Reset() {
	p.integral = 0
	p.lastErr = 0
	p.hasLast = false
}

func (p *PID) clamp(v float64) float64 {
	if p.OutMax != 0 || p.OutMin != 0 {
		if v > p.OutMax {
			v = p.OutMax
		}
		if v < p.OutMin {
			v = p.OutMin
		}
	}
	return v
}

// DefaultSteeringPID is tuned for the 1/10 vehicle's line follower at
// the testbed's approach speeds.
func DefaultSteeringPID() PID {
	return PID{
		Kp:            1.8,
		Ki:            0.15,
		Kd:            0.25,
		OutMin:        -0.43,
		OutMax:        0.43,
		IntegralLimit: 0.5,
	}
}

// ActuationLatency models the command path Jetson → USART → Teensy →
// PWM output: serial transfer of the command frame plus MCU loop
// pickup.
type ActuationLatency struct {
	// USARTBytes per command frame.
	USARTBytes int
	// BaudRate of the serial link.
	BaudRate int
	// MCULoopPeriod of the Teensy firmware's control loop; command
	// take effect at the next loop boundary (sampled uniformly).
	MCULoopPeriod time.Duration
	// PWMPeriod of the servo signal; the new duty takes effect at the
	// next PWM frame boundary (worst half period on average).
	PWMPeriod time.Duration
}

// DefaultActuation matches the testbed: 115200 baud USART, a 1 kHz
// Teensy loop, 50 Hz hobby PWM.
func DefaultActuation() ActuationLatency {
	return ActuationLatency{
		USARTBytes:    8,
		BaudRate:      115200,
		MCULoopPeriod: time.Millisecond,
		PWMPeriod:     20 * time.Millisecond,
	}
}

// SerialDelay returns the deterministic USART transfer time (10 bits
// per byte with start/stop framing).
func (a ActuationLatency) SerialDelay() time.Duration {
	if a.BaudRate <= 0 {
		return 0
	}
	bits := 10 * a.USARTBytes
	return time.Duration(float64(bits) / float64(a.BaudRate) * float64(time.Second))
}

// Sample draws a total actuation latency: serial transfer plus a
// uniform MCU loop phase plus a uniform PWM frame phase. The uniform
// variates come from u1, u2 ∈ [0,1).
func (a ActuationLatency) Sample(u1, u2 float64) time.Duration {
	d := a.SerialDelay()
	d += time.Duration(u1 * float64(a.MCULoopPeriod))
	d += time.Duration(u2 * float64(a.PWMPeriod) / 2)
	return d
}
