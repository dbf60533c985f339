package edge

import (
	"testing"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/geo"
	"itsbed/internal/its/messages"
	"itsbed/internal/openc2x"
	"itsbed/internal/perception"
	"itsbed/internal/radio"
	"itsbed/internal/sim"
	"itsbed/internal/stack"
	"itsbed/internal/units"
)

func frameAt(t *testing.T, dist float64, seq uint64, at time.Duration) perception.FrameResult {
	t.Helper()
	return perception.FrameResult{
		FrameSeq:       seq,
		CaptureTime:    at,
		CompletionTime: at + 20*time.Millisecond,
		Detections: []perception.Detection{{
			Class:             perception.ClassStopSign,
			Confidence:        0.9,
			EstimatedDistance: dist,
		}},
		TruthDistance: dist,
	}
}

// lastTrack subscribes to ods and returns the latest track it published.
func lastTrack(ods *ObjectDetectionService) *TrackedObject {
	last := new(TrackedObject)
	ods.Subscribe(func(tr TrackedObject, _ perception.FrameResult) { *last = tr })
	return last
}

func TestODSTracksObject(t *testing.T) {
	ods := NewObjectDetectionService()
	tr := lastTrack(ods)
	ods.OnFrame(frameAt(t, 3.0, 0, 0))
	ods.OnFrame(frameAt(t, 2.6, 1, 250*time.Millisecond))
	if tr.Distance != 2.6 || tr.Frames != 2 {
		t.Fatalf("track %+v", *tr)
	}
	// Closing speed: (3.0 - 2.6) / 0.25 s = 1.6 m/s.
	if tr.ClosingSpeed < 1.5 || tr.ClosingSpeed > 1.7 {
		t.Fatalf("closing speed %v", tr.ClosingSpeed)
	}
}

func TestODSTrackExpiry(t *testing.T) {
	ods := NewObjectDetectionService()
	tr := lastTrack(ods)
	ods.OnFrame(frameAt(t, 3.0, 0, 0))
	// A new detection after a gap longer than the track lifetime
	// restarts the track (no bogus closing speed from the stale sample).
	ods.OnFrame(frameAt(t, 1.0, 10, 3*time.Second))
	if tr.Frames != 1 || tr.ClosingSpeed != 0 {
		t.Fatalf("restarted track %+v", *tr)
	}
}

func TestODSSubscribersPerDetection(t *testing.T) {
	ods := NewObjectDetectionService()
	n := 0
	ods.Subscribe(func(TrackedObject, perception.FrameResult) { n++ })
	res := frameAt(t, 2, 0, 0)
	res.Detections = append(res.Detections, perception.Detection{
		Class: perception.ClassMotorbike, EstimatedDistance: 2,
	})
	ods.OnFrame(res)
	if n != 2 {
		t.Fatalf("subscriber fired %d times for 2 detections", n)
	}
}

// hazardHarness wires a hazard service against a real RSU SimNode.
type hazardHarness struct {
	kernel *sim.Kernel
	rsu    *stack.Station
	node   *openc2x.SimNode
	hz     *HazardAdvertisementService
}

func newHazardHarness(t *testing.T, cfg HazardConfig) *hazardHarness {
	t.Helper()
	k := sim.NewKernel(11)
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		t.Fatal(err)
	}
	medium := radio.NewMedium(k, radio.MediumConfig{})
	rsu, err := stack.New(k, medium, stack.Config{
		Name:               "rsu",
		Role:               stack.RoleRSU,
		StationID:          1001,
		StationType:        units.StationTypeRoadSideUnit,
		Frame:              frame,
		Mobility:           stack.StaticMobility{Geo: geo.CISTERLab},
		NTP:                clock.PerfectNTP(),
		DisableCAMTriggers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	node := openc2x.NewSimNode(k, rsu, openc2x.Latencies{})
	clk := clock.NewNTP(clock.SourceFunc(k.Now), clock.PerfectNTP(), nil)
	hz := NewHazardService(k, cfg, node, rsu.LDM, clk)
	return &hazardHarness{kernel: k, rsu: rsu, node: node, hz: hz}
}

// run advances the harness kernel by d of virtual time.
func (h *hazardHarness) run(t *testing.T, d time.Duration) {
	t.Helper()
	h.kernel.Run(h.kernel.Now() + d)
}

func defaultCfg() HazardConfig {
	return DefaultHazardConfig(geo.CISTERLab)
}

func TestHazardTriggersDENM(t *testing.T) {
	h := newHazardHarness(t, defaultCfg())
	decided := false
	h.hz.OnDecision = func(tr TrackedObject, _ perception.FrameResult, _ time.Duration) {
		decided = true
		if tr.Distance > 1.52 {
			t.Errorf("decision on distance %v", tr.Distance)
		}
	}
	h.hz.OnTrack(TrackedObject{Class: perception.ClassStopSign, Distance: 1.45}, perception.FrameResult{})
	h.run(t, time.Second)
	if !decided {
		t.Fatal("no decision")
	}
	if h.hz.Triggers != 1 {
		t.Fatalf("triggers=%d", h.hz.Triggers)
	}
	if h.rsu.DEN.Transmitted != 1 {
		t.Fatal("RSU did not transmit the DENM")
	}
}

func TestHazardIgnoresFarObjects(t *testing.T) {
	h := newHazardHarness(t, defaultCfg())
	h.hz.OnTrack(TrackedObject{Class: perception.ClassStopSign, Distance: 1.60}, perception.FrameResult{})
	h.run(t, time.Second)
	if h.hz.Triggers != 0 {
		t.Fatal("triggered beyond the action point")
	}
}

func TestHazardIgnoresWrongClass(t *testing.T) {
	h := newHazardHarness(t, defaultCfg())
	h.hz.OnTrack(TrackedObject{Class: perception.ClassMotorbike, Distance: 1.0}, perception.FrameResult{})
	h.run(t, time.Second)
	if h.hz.Triggers != 0 {
		t.Fatal("triggered on a non-armed class")
	}
}

func TestHazardCooldown(t *testing.T) {
	h := newHazardHarness(t, defaultCfg())
	h.hz.OnTrack(TrackedObject{Class: perception.ClassStopSign, Distance: 1.4}, perception.FrameResult{})
	h.hz.OnTrack(TrackedObject{Class: perception.ClassStopSign, Distance: 1.3}, perception.FrameResult{})
	h.hz.OnTrack(TrackedObject{Class: perception.ClassStopSign, Distance: 1.2}, perception.FrameResult{})
	h.run(t, time.Second)
	if h.hz.Triggers != 1 {
		t.Fatalf("triggers=%d, want 1 (cooldown)", h.hz.Triggers)
	}
	if h.hz.Suppressed != 2 {
		t.Fatalf("suppressed=%d", h.hz.Suppressed)
	}
}

func TestHazardLDMVeto(t *testing.T) {
	cfg := defaultCfg()
	cfg.RequireLDMProtagonist = true
	h := newHazardHarness(t, cfg)
	h.hz.OnTrack(TrackedObject{Class: perception.ClassStopSign, Distance: 1.4}, perception.FrameResult{})
	h.run(t, time.Second)
	if h.hz.Triggers != 0 || h.hz.LDMVetoes != 1 {
		t.Fatalf("triggers=%d vetoes=%d, want veto", h.hz.Triggers, h.hz.LDMVetoes)
	}
	// Track a protagonist via CAM, then the trigger passes.
	cam := messages.NewCAM(2001, 0)
	cam.Basic = messages.BasicContainer{
		StationType: units.StationTypePassengerCar,
		Position: messages.ReferencePosition{
			Latitude:      units.LatitudeFromDegrees(geo.CISTERLab.Lat),
			Longitude:     units.LongitudeFromDegrees(geo.CISTERLab.Lon),
			AltitudeValue: messages.AltitudeUnavailable,
		},
	}
	h.rsu.LDM.IngestCAM(cam)
	h.hz.OnTrack(TrackedObject{Class: perception.ClassStopSign, Distance: 1.3}, perception.FrameResult{})
	h.run(t, time.Second)
	if h.hz.Triggers != 1 {
		t.Fatal("trigger still vetoed with a tracked protagonist")
	}
}

func TestHazardDENMContent(t *testing.T) {
	h := newHazardHarness(t, defaultCfg())
	var sent *messages.DENM
	h.rsu.DEN.OnTransmit = func(d *messages.DENM) { sent = d }
	h.hz.OnTrack(TrackedObject{Class: perception.ClassStopSign, Distance: 1.4}, perception.FrameResult{})
	h.run(t, time.Second)
	if sent == nil {
		t.Fatal("no DENM")
	}
	if sent.Situation.EventType.CauseCode != messages.CauseCollisionRisk {
		t.Fatalf("cause %v", sent.Situation.EventType.CauseCode)
	}
	if sent.Situation.EventType.SubCauseCode != messages.CollisionRiskCrossing {
		t.Fatalf("sub-cause %v", sent.Situation.EventType.SubCauseCode)
	}
}

func TestDefaultHazardConfigMatchesPaper(t *testing.T) {
	cfg := DefaultHazardConfig(geo.CISTERLab)
	if cfg.ActionPointDistance != 1.52 {
		t.Fatal("action point must default to the paper's 1.52 m")
	}
	if len(cfg.TriggerClasses) != 1 || cfg.TriggerClasses[0] != perception.ClassStopSign {
		t.Fatal("default trigger class must be the stop sign")
	}
	if cfg.Cause.CauseCode != messages.CauseCollisionRisk {
		t.Fatal("default cause must be collision risk (97)")
	}
}

// ttcHarness builds a TTC-mode hazard service.
func ttcHarness(t *testing.T) *hazardHarness {
	cfg := defaultCfg()
	cfg.TriggerOnTTC = true
	cfg.ConflictPoint = geo.Point{X: 0, Y: 5.6}
	cfg.CameraToConflict = 1.0
	return newHazardHarness(t, cfg)
}

// trackProtagonist puts a CAM vehicle approaching the conflict point
// into the RSU's LDM: northbound at the given distance and speed.
func trackProtagonist(t *testing.T, h *hazardHarness, distance, speed float64) {
	t.Helper()
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		t.Fatal(err)
	}
	pos := frame.ToGeodetic(geo.Point{X: 0, Y: 5.6 - distance})
	cam := messages.NewCAM(2001, 0)
	cam.Basic = messages.BasicContainer{
		StationType: units.StationTypePassengerCar,
		Position: messages.ReferencePosition{
			Latitude:      units.LatitudeFromDegrees(pos.Lat),
			Longitude:     units.LongitudeFromDegrees(pos.Lon),
			AltitudeValue: messages.AltitudeUnavailable,
		},
	}
	cam.HighFrequency.Speed = units.SpeedFromMS(speed)
	cam.HighFrequency.Heading = units.HeadingFromRadians(0) // north
	h.rsu.LDM.IngestCAM(cam)
}

func TestTTCTriggersOnConvergingArrivals(t *testing.T) {
	h := ttcHarness(t)
	// Protagonist 3 m short of the conflict at 1.5 m/s → TTC 2 s.
	trackProtagonist(t, h, 3.0, 1.5)
	// Object 2 m of camera distance to cover at 1 m/s → TTC 2 s.
	h.hz.OnTrack(TrackedObject{Class: perception.ClassStopSign, Distance: 3.0, ClosingSpeed: 1.0}, perception.FrameResult{})
	h.run(t, time.Second)
	if h.hz.Triggers != 1 {
		t.Fatalf("triggers=%d, want conflict detected", h.hz.Triggers)
	}
}

func TestTTCIgnoresDivergentArrivals(t *testing.T) {
	h := ttcHarness(t)
	// Protagonist arrives in 0.7 s; object needs 3.5 s: no conflict.
	trackProtagonist(t, h, 1.0, 1.5)
	h.hz.OnTrack(TrackedObject{Class: perception.ClassStopSign, Distance: 4.5, ClosingSpeed: 1.0}, perception.FrameResult{})
	h.run(t, time.Second)
	if h.hz.Triggers != 0 {
		t.Fatalf("triggered on divergent arrival times")
	}
}

func TestTTCRequiresProtagonist(t *testing.T) {
	h := ttcHarness(t)
	// No CAM vehicle in the LDM: nothing to protect.
	h.hz.OnTrack(TrackedObject{Class: perception.ClassStopSign, Distance: 3.0, ClosingSpeed: 1.0}, perception.FrameResult{})
	h.run(t, time.Second)
	if h.hz.Triggers != 0 {
		t.Fatal("triggered without a protagonist in the LDM")
	}
}

func TestTTCIgnoresRecedingObject(t *testing.T) {
	h := ttcHarness(t)
	trackProtagonist(t, h, 3.0, 1.5)
	h.hz.OnTrack(TrackedObject{Class: perception.ClassStopSign, Distance: 3.0, ClosingSpeed: -0.5}, perception.FrameResult{})
	h.run(t, time.Second)
	if h.hz.Triggers != 0 {
		t.Fatal("triggered on a receding object")
	}
}

func TestTTCIgnoresDepartingProtagonist(t *testing.T) {
	h := ttcHarness(t)
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		t.Fatal(err)
	}
	// Protagonist north of the conflict, still heading north (away).
	pos := frame.ToGeodetic(geo.Point{X: 0, Y: 5.6 + 2})
	cam := messages.NewCAM(2001, 0)
	cam.Basic = messages.BasicContainer{
		StationType: units.StationTypePassengerCar,
		Position: messages.ReferencePosition{
			Latitude:      units.LatitudeFromDegrees(pos.Lat),
			Longitude:     units.LongitudeFromDegrees(pos.Lon),
			AltitudeValue: messages.AltitudeUnavailable,
		},
	}
	cam.HighFrequency.Speed = units.SpeedFromMS(1.5)
	cam.HighFrequency.Heading = units.HeadingFromRadians(0)
	h.rsu.LDM.IngestCAM(cam)
	h.hz.OnTrack(TrackedObject{Class: perception.ClassStopSign, Distance: 3.0, ClosingSpeed: 1.0}, perception.FrameResult{})
	h.run(t, time.Second)
	if h.hz.Triggers != 0 {
		t.Fatal("triggered for a protagonist already past the conflict")
	}
}
