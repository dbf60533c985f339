package perception

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"itsbed/internal/geo"
	"itsbed/internal/sim"
	"itsbed/internal/track"
)

func TestDistanceQuirk(t *testing.T) {
	m := DefaultModel()
	rng := rand.New(rand.NewSource(1))
	// Below 0.75 m the estimator defaults to 1.73 m — the paper's
	// exact finding.
	for _, d := range []float64{0.1, 0.5, 0.74} {
		if got := m.EstimateDistance(d, rng); got != 1.73 {
			t.Fatalf("distance %v estimated %v, want the 1.73 default", d, got)
		}
	}
	// Above the floor the estimate tracks the truth.
	got := m.EstimateDistance(2.0, rng)
	if math.Abs(got-2.0) > 0.2 {
		t.Fatalf("distance 2.0 estimated %v", got)
	}
}

func TestInferenceLatencyBounds(t *testing.T) {
	m := DefaultModel()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		l := m.InferenceLatency(rng)
		if l < m.InferenceLatencyMean-m.InferenceLatencyJitter || l > m.InferenceLatencyMean+m.InferenceLatencyJitter {
			t.Fatalf("latency %v outside bounds", l)
		}
	}
}

func detectionRate(t *testing.T, truth Truth, n int) float64 {
	t.Helper()
	m := DefaultModel()
	rng := rand.New(rand.NewSource(42))
	hits := 0
	for i := 0; i < n; i++ {
		if len(m.Detect(truth, rng)) > 0 {
			hits++
		}
	}
	return float64(hits) / float64(n)
}

func TestStopSignMostReliable(t *testing.T) {
	const n = 3000
	at := func(d Dressing) float64 {
		return detectionRate(t, Truth{Distance: 1.5, ViewAngle: 0.05, InFrustum: true, Dressing: d}, n)
	}
	sign := at(DressingStopSign)
	shell := at(DressingShell)
	bare := at(DressingBare)
	if sign < 0.8 {
		t.Fatalf("stop sign rate %v, want high", sign)
	}
	if sign <= shell || shell <= bare {
		t.Fatalf("ordering violated: sign=%v shell=%v bare=%v (head-on)", sign, shell, bare)
	}
}

func TestBareVehicleOnlyShortRange(t *testing.T) {
	far := detectionRate(t, Truth{Distance: 2.5, ViewAngle: math.Pi / 4, InFrustum: true, Dressing: DressingBare}, 500)
	if far != 0 {
		t.Fatalf("bare vehicle detected at 2.5 m: %v", far)
	}
	near := detectionRate(t, Truth{Distance: 1.0, ViewAngle: math.Pi / 4, InFrustum: true, Dressing: DressingBare}, 3000)
	if near < 0.2 {
		t.Fatalf("bare vehicle near 3/4-view rate %v, want moderate", near)
	}
}

func TestShellAngleSensitive(t *testing.T) {
	headOn := detectionRate(t, Truth{Distance: 1.5, ViewAngle: 0, InFrustum: true, Dressing: DressingShell}, 3000)
	oblique := detectionRate(t, Truth{Distance: 1.5, ViewAngle: math.Pi / 3, InFrustum: true, Dressing: DressingShell}, 3000)
	if headOn < 2*oblique {
		t.Fatalf("shell not angle sensitive: head-on %v vs oblique %v", headOn, oblique)
	}
}

func TestClassLabels(t *testing.T) {
	m := DefaultModel()
	rng := rand.New(rand.NewSource(7))
	sawCar, sawTruck := false, false
	for i := 0; i < 5000; i++ {
		dets := m.Detect(Truth{Distance: 1.0, ViewAngle: 0, InFrustum: true, Dressing: DressingShell}, rng)
		for _, d := range dets {
			switch d.Class {
			case ClassCar:
				sawCar = true
			case ClassTruck:
				sawTruck = true
			case ClassStopSign, ClassMotorbike, ClassPerson:
				t.Fatalf("shell classified as %s", d.Class)
			}
		}
	}
	if !sawCar || !sawTruck {
		t.Fatal("shell must oscillate between car and truck")
	}
	// Bare is always a motorbike.
	for i := 0; i < 2000; i++ {
		dets := m.Detect(Truth{Distance: 1.0, ViewAngle: math.Pi / 4, InFrustum: true, Dressing: DressingBare}, rng)
		for _, d := range dets {
			if d.Class != ClassMotorbike {
				t.Fatalf("bare vehicle classified as %s", d.Class)
			}
		}
	}
}

func TestStopSignSpuriousMotorbikeBox(t *testing.T) {
	m := DefaultModel()
	rng := rand.New(rand.NewSource(8))
	double := 0
	for i := 0; i < 5000; i++ {
		dets := m.Detect(Truth{Distance: 1.0, ViewAngle: 0, InFrustum: true, Dressing: DressingStopSign}, rng)
		if len(dets) == 2 {
			if dets[0].Class != ClassStopSign || dets[1].Class != ClassMotorbike {
				t.Fatalf("double detection classes %v/%v", dets[0].Class, dets[1].Class)
			}
			double++
		}
	}
	// Fig. 7c: the vehicle occasionally also draws a motorbike box.
	if double == 0 {
		t.Fatal("no Fig. 7c style double detections")
	}
}

func TestNoDetectionOutOfFrustum(t *testing.T) {
	if r := detectionRate(t, Truth{Distance: 1.0, InFrustum: false, Dressing: DressingStopSign}, 200); r != 0 {
		t.Fatal("detected outside the frustum")
	}
	if r := detectionRate(t, Truth{Distance: 0, InFrustum: true, Dressing: DressingStopSign}, 200); r != 0 {
		t.Fatal("detected at zero distance")
	}
}

func TestRoadsideCameraPipeline(t *testing.T) {
	k := sim.NewKernel(9)
	pos := geo.Point{X: 0, Y: 3}
	cam := NewRoadsideCamera(k, CameraConfig{
		Camera: track.Camera{Position: geo.Point{}, Facing: 0, FOV: 2, MaxRange: 10},
		Target: func() (geo.Point, float64, Dressing, bool) {
			return pos, math.Pi, DressingStopSign, true
		},
	})
	var results []FrameResult
	cam.Subscribe(func(r FrameResult) { results = append(results, r) })
	cam.Start()
	defer cam.Stop()
	k.Run(2 * time.Second)
	// 4 FPS for 2 s: 8-9 frames.
	if len(results) < 7 || len(results) > 10 {
		t.Fatalf("%d frames in 2 s at 4 FPS", len(results))
	}
	for i, r := range results {
		if r.CompletionTime <= r.CaptureTime {
			t.Fatalf("frame %d: completion %v before capture %v", i, r.CompletionTime, r.CaptureTime)
		}
		if r.CompletionTime-r.CaptureTime > 30*time.Millisecond {
			t.Fatalf("frame %d inference latency %v", i, r.CompletionTime-r.CaptureTime)
		}
		if math.Abs(r.TruthDistance-3) > 1e-9 {
			t.Fatalf("truth distance %v", r.TruthDistance)
		}
		if uint64(i) != r.FrameSeq {
			t.Fatalf("frame sequence %d at index %d", r.FrameSeq, i)
		}
	}
	if cam.FramesProcessed == 0 || cam.FramesWithDetection == 0 {
		t.Fatalf("counters processed=%d withDet=%d", cam.FramesProcessed, cam.FramesWithDetection)
	}
}

func TestCameraFramePeriodConfigurable(t *testing.T) {
	k := sim.NewKernel(10)
	cam := NewRoadsideCamera(k, CameraConfig{
		Camera:      track.Camera{Position: geo.Point{}, FOV: 2, MaxRange: 10},
		FramePeriod: 100 * time.Millisecond,
		Target: func() (geo.Point, float64, Dressing, bool) {
			return geo.Point{Y: 2}, math.Pi, DressingStopSign, true
		},
	})
	n := 0
	cam.Subscribe(func(FrameResult) { n++ })
	cam.Start()
	defer cam.Stop()
	k.Run(time.Second)
	if n < 9 || n > 12 {
		t.Fatalf("%d frames at 10 FPS in 1 s", n)
	}
}

func TestDressingString(t *testing.T) {
	if DressingBare.String() != "bare" || DressingStopSign.String() != "stop-sign" {
		t.Fatal("dressing strings")
	}
}

func TestPedestrianDetectionProbability(t *testing.T) {
	if PedestrianDetectionProbability(false, 2, 10) != 0 {
		t.Fatal("detection outside the frustum")
	}
	if PedestrianDetectionProbability(true, 0, 10) != 0 {
		t.Fatal("detection at zero distance")
	}
	if PedestrianDetectionProbability(true, 11, 10) != 0 {
		t.Fatal("detection beyond max range")
	}
	near := PedestrianDetectionProbability(true, 1, 10)
	far := PedestrianDetectionProbability(true, 9, 10)
	if near <= far {
		t.Fatalf("probability must decay with range: %v vs %v", near, far)
	}
	if near < 0.85 || near > 1 {
		t.Fatalf("close-in person probability %v, want near-certain", near)
	}
}

func TestDetectPedestrian(t *testing.T) {
	m := DefaultModel()
	rng := rand.New(rand.NewSource(5))
	hits := 0
	for i := 0; i < 500; i++ {
		det, ok := m.DetectPedestrian(true, 3, 10, rng)
		if !ok {
			continue
		}
		hits++
		if det.Class != ClassPerson {
			t.Fatalf("class %q, want person", det.Class)
		}
		if det.Confidence < 0.6 || det.Confidence > 0.95 {
			t.Fatalf("confidence %v out of band", det.Confidence)
		}
		if math.Abs(det.EstimatedDistance-3) > 0.5 {
			t.Fatalf("distance estimate %v for truth 3", det.EstimatedDistance)
		}
	}
	// p ≈ 0.87 at 3 m: most frames hit, some miss.
	if hits < 350 || hits == 500 {
		t.Fatalf("hit %d/500 frames at 3 m", hits)
	}
	if _, ok := m.DetectPedestrian(false, 3, 10, rng); ok {
		t.Fatal("detected through the occlusion")
	}
}
