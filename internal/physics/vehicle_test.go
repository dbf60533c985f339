package physics

import (
	"math"
	"testing"

	"itsbed/internal/geo"
)

func stepFor(b *Body, seconds, dt float64) {
	for t := 0.0; t < seconds; t += dt {
		b.Step(dt)
	}
}

func TestAcceleratesToCommandedSpeed(t *testing.T) {
	b := NewBody(DefaultF110(), geo.Point{}, 0)
	b.SetCommandedSpeed(1.5)
	stepFor(b, 3, 0.002)
	if v := b.State().Speed; math.Abs(v-1.5) > 0.02 {
		t.Fatalf("speed %v after 3 s, want ~1.5", v)
	}
}

func TestFirstOrderResponseTimeConstant(t *testing.T) {
	p := DefaultF110()
	b := NewBody(p, geo.Point{}, 0)
	b.SetCommandedSpeed(1.0)
	stepFor(b, p.MotorTimeConstant, 0.001)
	// After one time constant: ~63% of the setpoint.
	if v := b.State().Speed; v < 0.58 || v > 0.68 {
		t.Fatalf("speed %v after one tau, want ~0.63", v)
	}
}

func TestStraightLineMotion(t *testing.T) {
	b := NewBody(DefaultF110(), geo.Point{}, 0) // heading north
	b.SetCommandedSpeed(1.0)
	stepFor(b, 5, 0.002)
	st := b.State()
	if math.Abs(st.Position.X) > 1e-6 {
		t.Fatalf("straight drive drifted laterally: %v", st.Position)
	}
	if st.Position.Y < 3.5 || st.Position.Y > 5 {
		t.Fatalf("travelled %v m in 5 s at ~1 m/s", st.Position.Y)
	}
	if math.Abs(st.Odometer-st.Position.Y) > 1e-6 {
		t.Fatal("odometer disagrees with straight-line distance")
	}
}

func TestCutPowerStopsVehicle(t *testing.T) {
	p := DefaultF110()
	b := NewBody(p, geo.Point{}, 0)
	b.SetCommandedSpeed(1.5)
	stepFor(b, 3, 0.002)
	start := b.State().Position
	v0 := b.State().Speed
	b.CutPower()
	if !b.PowerCut() {
		t.Fatal("latch not engaged")
	}
	stepFor(b, 2, 0.002)
	if !b.Stopped() {
		t.Fatal("vehicle did not stop after power cut")
	}
	dist := b.State().Position.DistanceTo(start)
	want := v0 * v0 / (2 * p.BrakeDecel)
	if math.Abs(dist-want) > 0.02 {
		t.Fatalf("coast distance %.3f, want %.3f (v²/2a)", dist, want)
	}
}

func TestCutPowerIgnoresNewSpeedCommands(t *testing.T) {
	b := NewBody(DefaultF110(), geo.Point{}, 0)
	b.SetCommandedSpeed(1.5)
	stepFor(b, 2, 0.002)
	b.CutPower()
	b.SetCommandedSpeed(3.0) // must not revive the drivetrain
	stepFor(b, 3, 0.002)
	if !b.Stopped() {
		t.Fatal("vehicle re-accelerated after power cut")
	}
}

func TestTurningRadiusMatchesBicycleModel(t *testing.T) {
	p := DefaultF110()
	b := NewBody(p, geo.Point{}, 0)
	b.SetCommandedSpeed(1.0)
	const delta = 0.2
	b.SetCommandedSteering(delta)
	// Let speed and steering settle, then measure a full loop.
	stepFor(b, 3, 0.001)
	// Theoretical radius R = L / tan(δ).
	wantR := p.Wheelbase / math.Tan(delta)
	// Measure the yaw rate directly: v/R.
	gotYaw := b.YawRate()
	wantYaw := b.State().Speed / wantR
	if math.Abs(gotYaw-wantYaw) > 0.02 {
		t.Fatalf("yaw rate %.3f, want %.3f", gotYaw, wantYaw)
	}
}

func TestSteeringClamp(t *testing.T) {
	p := DefaultF110()
	b := NewBody(p, geo.Point{}, 0)
	b.SetCommandedSteering(10)
	stepFor(b, 1, 0.002)
	if s := b.State().Steering; s > p.MaxSteeringAngle+1e-9 {
		t.Fatalf("steering %v beyond clamp", s)
	}
	b.SetCommandedSteering(-10)
	stepFor(b, 1, 0.002)
	if s := b.State().Steering; s < -p.MaxSteeringAngle-1e-9 {
		t.Fatalf("steering %v beyond clamp", s)
	}
}

func TestSteeringSlewRate(t *testing.T) {
	p := DefaultF110()
	b := NewBody(p, geo.Point{}, 0)
	b.SetCommandedSteering(p.MaxSteeringAngle)
	b.Step(0.01)
	if got := b.State().Steering; math.Abs(got-p.SteeringRate*0.01) > 1e-9 {
		t.Fatalf("servo moved %v in 10 ms, want %v", got, p.SteeringRate*0.01)
	}
}

func TestSpeedCommandClamps(t *testing.T) {
	p := DefaultF110()
	b := NewBody(p, geo.Point{}, 0)
	b.SetCommandedSpeed(-5)
	stepFor(b, 1, 0.002)
	if b.State().Speed != 0 {
		t.Fatal("negative command moved the vehicle")
	}
	b.SetCommandedSpeed(1000)
	stepFor(b, 20, 0.002)
	if b.State().Speed > p.MaxSpeed+1e-9 {
		t.Fatalf("speed %v beyond MaxSpeed", b.State().Speed)
	}
}

func TestZeroAndNegativeStepIgnored(t *testing.T) {
	b := NewBody(DefaultF110(), geo.Point{X: 1, Y: 2}, 0.5)
	before := b.State()
	b.Step(0)
	b.Step(-1)
	if b.State() != before {
		t.Fatal("non-positive step mutated state")
	}
}

func TestHeadingNormalised(t *testing.T) {
	b := NewBody(DefaultF110(), geo.Point{}, 0)
	b.SetCommandedSpeed(2)
	b.SetCommandedSteering(0.4)
	stepFor(b, 30, 0.002)
	h := b.State().Heading
	if h < 0 || h >= 2*math.Pi {
		t.Fatalf("heading %v not normalised", h)
	}
}

func TestDefaultParamsMatchPaperVehicle(t *testing.T) {
	p := DefaultF110()
	if p.Length != 0.53 {
		t.Fatal("vehicle length must be the paper's 0.53 m")
	}
	if p.MaxSpeed < 16 || p.MaxSpeed > 17 {
		t.Fatal("top speed must be ~60 km/h")
	}
}
