package vehicle

import (
	"math"
	"testing"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/geo"
	"itsbed/internal/its/facilities/den"
	"itsbed/internal/its/messages"
	"itsbed/internal/openc2x"
	"itsbed/internal/radio"
	"itsbed/internal/sim"
	"itsbed/internal/stack"
	"itsbed/internal/track"
	"itsbed/internal/units"
)

func labConfig(useVision bool) Config {
	cfg := DefaultConfig(track.PaperLab())
	cfg.UseVision = useVision
	return cfg
}

func TestLineFollowingGroundTruth(t *testing.T) {
	k := sim.NewKernel(31)
	v, err := New(k, labConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	v.Start()
	defer v.Stop()
	maxLateral := 0.0
	k.Every(0, 50*time.Millisecond, func() {
		_, lat := v.cfg.Layout.Line.Project(v.Body.State().Position)
		if math.Abs(lat) > maxLateral {
			maxLateral = math.Abs(lat)
		}
	})
	k.Run(3 * time.Second)
	if maxLateral > 0.08 {
		t.Fatalf("lateral deviation %.3f m, line following broken", maxLateral)
	}
	if v.Body.State().Position.Y < 2.5 {
		t.Fatalf("vehicle advanced only %.2f m in 3 s", v.Body.State().Position.Y)
	}
}

func TestLineFollowingFullVision(t *testing.T) {
	if testing.Short() {
		t.Skip("vision pipeline is CPU heavy")
	}
	k := sim.NewKernel(32)
	v, err := New(k, labConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	v.Start()
	defer v.Stop()
	k.Run(3 * time.Second)
	_, lat := v.cfg.Layout.Line.Project(v.Body.State().Position)
	if math.Abs(lat) > 0.1 {
		t.Fatalf("vision follower off the line by %.3f m", lat)
	}
	if v.LostLineCycles > v.DetectionCycles/4 {
		t.Fatalf("lost the line in %d/%d cycles", v.LostLineCycles, v.DetectionCycles)
	}
}

func TestEmergencyStopDirect(t *testing.T) {
	k := sim.NewKernel(33)
	v, err := New(k, labConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	var cmdAt time.Duration
	haltSeen := false
	v.OnStopCommand = func(t time.Duration) { cmdAt = t }
	v.OnHalt = func(time.Duration) { haltSeen = true }
	v.Start()
	defer v.Stop()
	k.Schedule(2*time.Second, v.EmergencyStop)
	ok := k.RunUntil(10*time.Second, v.Halted)
	if !ok {
		t.Fatal("vehicle never halted")
	}
	if !v.StopIssued() || !haltSeen {
		t.Fatal("stop bookkeeping wrong")
	}
	if cmdAt == 0 {
		t.Fatal("stop command not stamped")
	}
	if !v.Body.PowerCut() || !v.Body.Stopped() {
		t.Fatal("physics not stopped")
	}
}

func TestEmergencyStopIdempotent(t *testing.T) {
	k := sim.NewKernel(34)
	v, err := New(k, labConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	stamps := 0
	v.OnStopCommand = func(time.Duration) { stamps++ }
	v.Start()
	defer v.Stop()
	k.Schedule(time.Second, v.EmergencyStop)
	k.Schedule(time.Second+time.Millisecond, v.EmergencyStop)
	k.RunUntil(10*time.Second, v.Halted)
	if stamps != 1 {
		t.Fatalf("stop command stamped %d times", stamps)
	}
}

func TestActuationLatencyBeforePowerCut(t *testing.T) {
	k := sim.NewKernel(35)
	v, err := New(k, labConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	var cmdAt time.Duration
	v.OnStopCommand = func(time.Duration) { cmdAt = k.Now() }
	v.Start()
	defer v.Stop()
	k.Schedule(time.Second, v.EmergencyStop)
	var cutAt time.Duration
	k.Every(0, time.Millisecond, func() {
		if cutAt == 0 && v.Body.PowerCut() {
			cutAt = k.Now()
		}
	})
	k.RunUntil(10*time.Second, v.Halted)
	gap := cutAt - cmdAt
	if gap <= 0 || gap > 15*time.Millisecond {
		t.Fatalf("command-to-cut gap %v (USART + MCU + PWM frame)", gap)
	}
}

// obuForVehicle builds a full OBU SimNode attached to the vehicle.
func obuForVehicle(t *testing.T, k *sim.Kernel, v *Vehicle) (*openc2x.SimNode, *stack.Station, *stack.Station) {
	t.Helper()
	frame := v.cfg.Layout.Frame
	medium := radio.NewMedium(k, radio.MediumConfig{})
	obu, err := stack.New(k, medium, stack.Config{
		Name: "obu", Role: stack.RoleOBU, StationID: 2001,
		StationType: units.StationTypePassengerCar, Frame: frame,
		Mobility: v.Mobility(), NTP: clock.PerfectNTP(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rsuPos := geo.Point{X: 0, Y: 6.6}
	rsu, err := stack.New(k, medium, stack.Config{
		Name: "rsu", Role: stack.RoleRSU, StationID: 1001,
		StationType: units.StationTypeRoadSideUnit, Frame: frame,
		Mobility:           stack.StaticMobility{Point: rsuPos, Geo: frame.ToGeodetic(rsuPos)},
		NTP:                clock.PerfectNTP(),
		DisableCAMTriggers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	node := openc2x.NewSimNode(k, obu, openc2x.Latencies{})
	v.AttachOBU(node)
	return node, obu, rsu
}

func TestPollerStopsVehicleOnDENM(t *testing.T) {
	k := sim.NewKernel(36)
	v, err := New(k, labConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	_, obuStation, rsu := obuForVehicle(t, k, v)
	_ = obuStation
	v.Start()
	rsu.Start()
	defer v.Stop()
	defer rsu.Stop()
	// RSU triggers a DENM at the vehicle's position at t=1 s.
	k.Schedule(time.Second, func() {
		pos := v.cfg.Layout.Frame.ToGeodetic(v.Body.State().Position)
		_, err := rsu.DEN.Trigger(den.EventRequest{
			EventType: messages.EventType{
				CauseCode:    messages.CauseCollisionRisk,
				SubCauseCode: messages.CollisionRiskCrossing,
			},
			Position: pos,
			Quality:  3,
		})
		if err != nil {
			t.Error(err)
		}
	})
	ok := k.RunUntil(20*time.Second, v.Halted)
	if !ok {
		t.Fatal("vehicle did not stop on the DENM")
	}
	if v.DENMsHandled == 0 || v.PollsIssued == 0 {
		t.Fatalf("poller stats polls=%d handled=%d", v.PollsIssued, v.DENMsHandled)
	}
}

func TestResetRestoresStartState(t *testing.T) {
	k := sim.NewKernel(37)
	cfg := labConfig(false)
	v, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v.Start()
	k.Schedule(time.Second, v.EmergencyStop)
	k.RunUntil(10*time.Second, v.Halted)
	v.Reset()
	st := v.Body.State()
	if st.Position != cfg.Layout.Line.PointAt(cfg.StartArc) {
		t.Fatalf("position %v after reset", st.Position)
	}
	if v.StopIssued() || v.Halted() {
		t.Fatal("latches not cleared")
	}
	if v.Body.PowerCut() {
		t.Fatal("power latch not cleared")
	}
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel(1)
	if _, err := New(k, Config{}); err == nil {
		t.Fatal("config without line accepted")
	}
	cfg := labConfig(false)
	cfg.PollInterval = 0
	if _, err := New(k, cfg); err == nil {
		t.Fatal("zero poll interval accepted")
	}
}

func TestMobilityAdapters(t *testing.T) {
	k := sim.NewKernel(38)
	v, err := New(k, labConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	m := v.Mobility()
	if m.Position() != v.Body.State().Position {
		t.Fatal("position adapter")
	}
	st := m.VehicleState()
	if st.Length != v.cfg.Params.Length {
		t.Fatal("state adapter length")
	}
	if !st.Position.Valid() {
		t.Fatal("geodetic position invalid")
	}
}
