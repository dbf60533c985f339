package ca

import (
	"testing"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/geo"
	"itsbed/internal/its/messages"
	"itsbed/internal/sim"
	"itsbed/internal/units"
)

// testHarness wires a CA service to a capture sink.
type testHarness struct {
	kernel *sim.Kernel
	state  VehicleState
	sent   [][]byte
	svc    *Service
}

func newHarness(t *testing.T, disableTriggers bool) *testHarness {
	t.Helper()
	h := &testHarness{kernel: sim.NewKernel(1)}
	h.state = VehicleState{
		Position: geo.CISTERLab,
		SpeedMS:  0,
		Length:   0.53,
		Width:    0.29,
	}
	clk := clock.NewNTP(clock.SourceFunc(h.kernel.Now), clock.PerfectNTP(), nil)
	svc, err := New(h.kernel, Config{
		StationID:   2001,
		StationType: units.StationTypePassengerCar,
		Provider:    StateFunc(func() VehicleState { return h.state }),
		Send: func(p []byte) error {
			h.sent = append(h.sent, p)
			return nil
		},
		Clock:           clk,
		DisableTriggers: disableTriggers,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.svc = svc
	return h
}

func TestStaticVehicleSendsAtOneHertz(t *testing.T) {
	h := newHarness(t, false)
	h.svc.Start()
	h.kernel.Run(5 * time.Second)
	h.svc.Stop()
	// T_GenCamMax = 1 s: expect ~5-6 CAMs in 5 s.
	if len(h.sent) < 5 || len(h.sent) > 7 {
		t.Fatalf("static vehicle sent %d CAMs in 5 s, want ~5", len(h.sent))
	}
}

func TestSpeedChangeTriggersCAM(t *testing.T) {
	h := newHarness(t, false)
	h.svc.Start()
	// Accelerate by >0.5 m/s every 100 ms.
	h.kernel.Every(50*time.Millisecond, 100*time.Millisecond, func() {
		h.state.SpeedMS += 0.6
	})
	h.kernel.Run(2 * time.Second)
	h.svc.Stop()
	// With the trigger firing each check, expect near 10 Hz.
	if len(h.sent) < 15 {
		t.Fatalf("accelerating vehicle sent %d CAMs in 2 s, want ~20", len(h.sent))
	}
}

func TestHeadingChangeTriggersCAM(t *testing.T) {
	h := newHarness(t, false)
	h.svc.Start()
	h.kernel.Every(50*time.Millisecond, 100*time.Millisecond, func() {
		h.state.HeadingRad += 0.1 // 5.7° per period
	})
	h.kernel.Run(2 * time.Second)
	if len(h.sent) < 15 {
		t.Fatalf("turning vehicle sent %d CAMs, want ~20", len(h.sent))
	}
}

func TestMinInterval(t *testing.T) {
	h := newHarness(t, false)
	h.svc.Start()
	// Change everything constantly; still at most one CAM per 100 ms.
	h.kernel.Every(10*time.Millisecond, 10*time.Millisecond, func() {
		h.state.SpeedMS += 1
	})
	h.kernel.Run(time.Second)
	if len(h.sent) > 11 {
		t.Fatalf("sent %d CAMs in 1 s, exceeding the 100 ms floor", len(h.sent))
	}
}

func TestDisableTriggersForcesOneHertz(t *testing.T) {
	h := newHarness(t, true)
	h.svc.Start()
	h.kernel.Every(50*time.Millisecond, 100*time.Millisecond, func() {
		h.state.SpeedMS += 5
	})
	h.kernel.Run(3 * time.Second)
	if len(h.sent) > 4 {
		t.Fatalf("RSU-style service sent %d CAMs in 3 s, want ~3", len(h.sent))
	}
}

func TestLowFrequencyContainerCadence(t *testing.T) {
	h := newHarness(t, false)
	h.svc.Start()
	h.kernel.Every(50*time.Millisecond, 100*time.Millisecond, func() {
		h.state.SpeedMS += 0.6
	})
	h.kernel.Run(2 * time.Second)
	withLF := 0
	for _, p := range h.sent {
		cam, err := messages.DecodeCAM(p)
		if err != nil {
			t.Fatal(err)
		}
		if cam.LowFrequency != nil {
			withLF++
		}
	}
	// At 500 ms cadence over 2 s: 4-5 low-frequency containers.
	if withLF < 3 || withLF > 6 {
		t.Fatalf("%d/%d CAMs carried the low-frequency container", withLF, len(h.sent))
	}
	if len(h.sent) > 0 {
		first, err := messages.DecodeCAM(h.sent[0])
		if err != nil {
			t.Fatal(err)
		}
		if first.LowFrequency == nil {
			t.Fatal("first CAM must carry the low-frequency container")
		}
	}
}

func TestCAMContentReflectsState(t *testing.T) {
	h := newHarness(t, false)
	h.state.SpeedMS = 1.5
	h.state.HeadingRad = 0
	h.svc.Start()
	h.kernel.Run(100 * time.Millisecond)
	if len(h.sent) == 0 {
		t.Fatal("no CAM sent")
	}
	cam, err := messages.DecodeCAM(h.sent[0])
	if err != nil {
		t.Fatal(err)
	}
	if cam.Header.StationID != 2001 {
		t.Fatal("station ID")
	}
	if got := cam.HighFrequency.Speed.MS(); got < 1.49 || got > 1.51 {
		t.Fatalf("speed %v", got)
	}
	if cam.Basic.StationType != units.StationTypePassengerCar {
		t.Fatal("station type")
	}
	if got := cam.Basic.Position.Latitude.Degrees(); got < 41.17 || got > 41.19 {
		t.Fatalf("latitude %v", got)
	}
	if got := float64(cam.HighFrequency.VehicleLength); got != 5 {
		t.Fatalf("vehicle length code %v, want 5 (0.53 m → 5×0.1 m)", got)
	}
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel(1)
	clk := clock.NewNTP(clock.SourceFunc(k.Now), clock.PerfectNTP(), nil)
	if _, err := New(k, Config{Send: func([]byte) error { return nil }, Clock: clk}); err == nil {
		t.Fatal("service without provider accepted")
	}
	if _, err := New(k, Config{Provider: StateFunc(func() VehicleState { return VehicleState{} }), Clock: clk}); err == nil {
		t.Fatal("service without send accepted")
	}
}

func TestReceiver(t *testing.T) {
	var got []*messages.CAM
	r := Receiver{Sink: func(c *messages.CAM) { got = append(got, c) }}
	h := newHarness(t, false)
	h.svc.Start()
	h.kernel.Run(200 * time.Millisecond)
	for _, p := range h.sent {
		r.OnDecoded(messages.DecodeCAM(p))
	}
	if int(r.Received) != len(h.sent) || len(got) != len(h.sent) {
		t.Fatalf("received %d/%d", r.Received, len(h.sent))
	}
	r.OnDecoded(messages.DecodeCAM([]byte{0xff}))
	if r.Malformed != 1 {
		t.Fatal("malformed payload not counted")
	}
}

func TestStartStopIdempotent(t *testing.T) {
	h := newHarness(t, false)
	h.svc.Start()
	h.svc.Start() // no double ticker
	h.kernel.Run(time.Second)
	n := len(h.sent)
	if n > 2 {
		t.Fatalf("double Start caused %d CAMs for a static vehicle", n)
	}
	h.svc.Stop()
	h.svc.Stop()
	h.kernel.Run(2 * time.Second)
	if len(h.sent) != n {
		t.Fatal("CAMs sent after Stop")
	}
}

func TestPathHistoryAccumulates(t *testing.T) {
	h := newHarness(t, false)
	// Drive the vehicle north 0.5 m per 100 ms so spacing is exceeded
	// and dynamics trigger CAMs.
	frame0, err := geo.NewFrame(h.state.Position)
	if err != nil {
		t.Fatal(err)
	}
	y := 0.0
	h.kernel.Every(50*time.Millisecond, 100*time.Millisecond, func() {
		y += 0.5
		h.state.Position = frame0.ToGeodetic(geo.Point{X: 0, Y: y})
	})
	h.svc.Start()
	h.kernel.Run(3 * time.Second)
	// The last CAM with a low-frequency container must carry a
	// non-empty path history with plausible deltas.
	var lf *messages.BasicVehicleContainerLowFrequency
	for _, p := range h.sent {
		cam, err := messages.DecodeCAM(p)
		if err != nil {
			t.Fatal(err)
		}
		if cam.LowFrequency != nil {
			lf = cam.LowFrequency
		}
	}
	if lf == nil {
		t.Fatal("no low-frequency container observed")
	}
	if len(lf.PathHistory) < 2 {
		t.Fatalf("path history has %d points", len(lf.PathHistory))
	}
	// Points are behind the vehicle (south): negative latitude deltas,
	// growing with age.
	if lf.PathHistory[0].DeltaLatitude >= 0 {
		t.Fatalf("first delta %d, want negative (behind)", lf.PathHistory[0].DeltaLatitude)
	}
	for i := 1; i < len(lf.PathHistory); i++ {
		if lf.PathHistory[i].DeltaLatitude > lf.PathHistory[i-1].DeltaLatitude {
			t.Fatal("path points not ordered most-recent-first")
		}
		if lf.PathHistory[i].DeltaTime < lf.PathHistory[i-1].DeltaTime {
			t.Fatal("delta times not increasing with age")
		}
	}
	if len(lf.PathHistory) > 10 {
		t.Fatal("history not bounded")
	}
}

// fixedGate is a TxGate returning a constant floor, standing in for
// the radio package's DCC controller.
type fixedGate struct {
	min   time.Duration
	asked int
}

func (g *fixedGate) MinInterval() time.Duration { g.asked++; return g.min }

func TestTxGateThrottlesCAMGeneration(t *testing.T) {
	h := &testHarness{kernel: sim.NewKernel(1)}
	h.state = VehicleState{Position: geo.CISTERLab, SpeedMS: 10, Length: 0.53, Width: 0.29}
	gate := &fixedGate{min: 300 * time.Millisecond}
	var at []time.Duration
	clk := clock.NewNTP(clock.SourceFunc(h.kernel.Now), clock.PerfectNTP(), nil)
	svc, err := New(h.kernel, Config{
		StationID:   2002,
		StationType: units.StationTypePassengerCar,
		Provider: StateFunc(func() VehicleState {
			// Drift the position every read so the standard's own
			// triggers would fire at every 100 ms check without a gate.
			s := h.state
			s.Position.Lat += 0.001 * h.kernel.Now().Seconds()
			return s
		}),
		Send:  func(p []byte) error { at = append(at, h.kernel.Now()); return nil },
		Clock: clk,
		Gate:  gate,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	h.kernel.Run(3 * time.Second)
	svc.Stop()
	if gate.asked == 0 {
		t.Fatal("gate never consulted")
	}
	if len(at) < 2 {
		t.Fatalf("only %d CAMs sent under gating", len(at))
	}
	for i := 1; i < len(at); i++ {
		if gap := at[i] - at[i-1]; gap < 300*time.Millisecond {
			t.Fatalf("CAM gap %v below the 300 ms gate floor", gap)
		}
	}
	// Without the gate the same drift generates CAMs near the 100 ms
	// check cadence, so the gate must have suppressed a majority.
	if len(at) > 11 {
		t.Fatalf("%d CAMs in 3 s despite a 300 ms floor", len(at))
	}
}
