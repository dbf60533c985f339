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
}

func TestODSTrackExpiry(t *testing.T) {
	ods := NewObjectDetectionService()
	tr := lastTrack(ods)
	ods.OnFrame(frameAt(t, 3.0, 0, 0))
	// A new detection after a gap longer than the track lifetime
	// restarts the track.
	ods.OnFrame(frameAt(t, 1.0, 10, 3*time.Second))
	if tr.Frames != 1 {
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
	hz := NewHazardService(k, cfg, node, clk)
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
