package control

import (
	"math"
	"testing"
	"time"

	"itsbed/internal/vision"
)

func TestPIDProportionalOnly(t *testing.T) {
	p := PID{Kp: 2}
	if got := p.Update(0.5, 0.01); got != 1.0 {
		t.Fatalf("P output %v, want 1.0", got)
	}
}

func TestPIDConvergesSimplePlant(t *testing.T) {
	// First-order plant: x' = u.
	pid := PID{Kp: 3, Ki: 0.5, Kd: 0.1, OutMin: -5, OutMax: 5, IntegralLimit: 2}
	x, target := 0.0, 1.0
	const dt = 0.01
	for i := 0; i < 2000; i++ {
		u := pid.Update(target-x, dt)
		x += u * dt
	}
	if math.Abs(x-target) > 0.01 {
		t.Fatalf("plant settled at %v, want %v", x, target)
	}
}

func TestPIDOutputClamped(t *testing.T) {
	p := PID{Kp: 100, OutMin: -1, OutMax: 1}
	if got := p.Update(10, 0.01); got != 1 {
		t.Fatalf("output %v, want clamp 1", got)
	}
	if got := p.Update(-10, 0.01); got != -1 {
		t.Fatalf("output %v, want clamp -1", got)
	}
}

func TestPIDAntiWindup(t *testing.T) {
	p := PID{Ki: 1, IntegralLimit: 0.5, OutMax: 10, OutMin: -10}
	for i := 0; i < 1000; i++ {
		p.Update(1, 0.01)
	}
	// Integral capped at 0.5 → output capped at Ki·0.5.
	if got := p.Update(0, 0.01); got > 0.51 {
		t.Fatalf("windup: output %v after long saturation", got)
	}
}

func TestPIDReset(t *testing.T) {
	p := PID{Kp: 1, Ki: 1, Kd: 1}
	p.Update(1, 0.01)
	p.Reset()
	// After reset, derivative must not see the old error.
	if got := p.Update(0, 0.01); got != 0 {
		t.Fatalf("post-reset output %v", got)
	}
}

func TestPIDZeroDt(t *testing.T) {
	p := PID{Kp: 2, Ki: 100, Kd: 100}
	if got := p.Update(1, 0); got != 2 {
		t.Fatalf("zero-dt output %v, want pure P", got)
	}
}

func TestActuationLatency(t *testing.T) {
	a := DefaultActuation()
	serial := a.SerialDelay()
	// 8 bytes at 115200 baud with framing: ~694 µs.
	if serial < 600*time.Microsecond || serial > 800*time.Microsecond {
		t.Fatalf("serial delay %v", serial)
	}
	min := a.Sample(0, 0)
	max := a.Sample(0.999, 0.999)
	if min != serial {
		t.Fatalf("minimum latency %v, want serial only", min)
	}
	if max < serial+a.MCULoopPeriod/2 {
		t.Fatalf("maximum latency %v too small", max)
	}
	if max > serial+a.MCULoopPeriod+a.PWMPeriod/2 {
		t.Fatalf("maximum latency %v too large", max)
	}
}

func TestPlannerCruisesOnLine(t *testing.T) {
	pl := NewPlanner(DefaultPlanner(), DefaultSteeringPID())
	det := vision.Detection{Found: true, TargetForward: 1, TargetLateral: 0, LateralError: 0}
	cmd := pl.Plan(det, 0.033)
	if cmd.EmergencyStop {
		t.Fatal("unexpected emergency stop")
	}
	if cmd.SpeedMS != DefaultPlanner().CruiseSpeed {
		t.Fatalf("speed %v", cmd.SpeedMS)
	}
	if math.Abs(cmd.SteeringAngle) > 0.01 {
		t.Fatalf("steering %v on a centred line", cmd.SteeringAngle)
	}
}

func TestPlannerSteersTowardLine(t *testing.T) {
	pl := NewPlanner(DefaultPlanner(), DefaultSteeringPID())
	// Line to the left (negative lateral).
	left := pl.Plan(vision.Detection{Found: true, TargetForward: 1, TargetLateral: -0.2, LateralError: -0.1}, 0.033)
	if left.SteeringAngle >= 0 {
		t.Fatalf("steering %v, want negative (left)", left.SteeringAngle)
	}
	pl.Reset()
	right := pl.Plan(vision.Detection{Found: true, TargetForward: 1, TargetLateral: 0.2, LateralError: 0.1}, 0.033)
	if right.SteeringAngle <= 0 {
		t.Fatalf("steering %v, want positive (right)", right.SteeringAngle)
	}
}

func TestPlannerStopsAfterLostLine(t *testing.T) {
	cfg := DefaultPlanner()
	cfg.LostLineTimeoutCycles = 3
	pl := NewPlanner(cfg, DefaultSteeringPID())
	for i := 0; i < 2; i++ {
		cmd := pl.Plan(vision.Detection{}, 0.033)
		if cmd.SpeedMS == 0 {
			t.Fatalf("stopped after only %d lost cycles", i+1)
		}
	}
	cmd := pl.Plan(vision.Detection{}, 0.033)
	if cmd.SpeedMS != 0 {
		t.Fatal("did not stop after timeout")
	}
	// A re-found line resets the counter.
	pl.Plan(vision.Detection{Found: true, TargetForward: 1}, 0.033)
	cmd = pl.Plan(vision.Detection{}, 0.033)
	if cmd.SpeedMS == 0 {
		t.Fatal("lost counter not reset by detection")
	}
}

func TestPlannerEmergencyLatch(t *testing.T) {
	pl := NewPlanner(DefaultPlanner(), DefaultSteeringPID())
	pl.RequestEmergencyStop()
	if !pl.emergency {
		t.Fatal("latch")
	}
	cmd := pl.Plan(vision.Detection{Found: true, TargetForward: 1}, 0.033)
	if !cmd.EmergencyStop {
		t.Fatal("latched planner issued a drive command")
	}
	pl.Reset()
	cmd = pl.Plan(vision.Detection{Found: true, TargetForward: 1}, 0.033)
	if cmd.EmergencyStop {
		t.Fatal("reset did not clear the latch")
	}
}

func TestPlannerSteeringClamp(t *testing.T) {
	cfg := DefaultPlanner()
	cfg.MaxSteering = 0.2
	pid := DefaultSteeringPID()
	pid.OutMax, pid.OutMin = 10, -10 // let the PID exceed the planner clamp
	pl := NewPlanner(cfg, pid)
	cmd := pl.Plan(vision.Detection{Found: true, TargetForward: 0.2, TargetLateral: 5, LateralError: 3}, 0.033)
	if math.Abs(cmd.SteeringAngle) > 0.2+1e-9 {
		t.Fatalf("steering %v beyond planner clamp", cmd.SteeringAngle)
	}
}
