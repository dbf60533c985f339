package sensors

import (
	"math"
	"math/rand"
	"testing"

	"itsbed/internal/geo"
	"itsbed/internal/world"
)

func noiselessLidar() *Lidar {
	cfg := DefaultHokuyo()
	cfg.RangeNoiseSigma = 0
	return NewLidar(cfg, nil)
}

func TestLidarSeesWallAhead(t *testing.T) {
	wm := world.NewMap([]world.Wall{{
		Segment:  geo.Segment{A: geo.Point{X: -2, Y: 3}, B: geo.Point{X: 2, Y: 3}},
		Material: world.MaterialBrick,
	}})
	l := noiselessLidar()
	scan := l.Scan(wm, geo.Point{}, 0, nil) // facing north
	r, ok := NearestAhead(scan, 0.05)
	if !ok {
		t.Fatal("wall dead ahead not seen")
	}
	if math.Abs(r.Range-3) > 0.01 {
		t.Fatalf("range %v, want 3", r.Range)
	}
}

func TestLidarSeesTargetCircle(t *testing.T) {
	l := noiselessLidar()
	scan := l.Scan(nil, geo.Point{}, 0, []Target{{Position: geo.Point{Y: 2}, Radius: 0.2}})
	r, ok := NearestAhead(scan, 0.05)
	if !ok {
		t.Fatal("target not seen")
	}
	if math.Abs(r.Range-1.8) > 0.02 {
		t.Fatalf("range %v, want 1.8 (circle edge)", r.Range)
	}
}

func TestLidarWallOccludesTarget(t *testing.T) {
	wm := world.NewMap([]world.Wall{{
		Segment:  geo.Segment{A: geo.Point{X: -2, Y: 1}, B: geo.Point{X: 2, Y: 1}},
		Material: world.MaterialConcrete,
	}})
	l := noiselessLidar()
	scan := l.Scan(wm, geo.Point{}, 0, []Target{{Position: geo.Point{Y: 3}, Radius: 0.2}})
	r, ok := NearestAhead(scan, 0.05)
	if !ok {
		t.Fatal("nothing seen")
	}
	if math.Abs(r.Range-1) > 0.01 {
		t.Fatalf("range %v: the wall must occlude the target", r.Range)
	}
}

func TestLidarNothingInRange(t *testing.T) {
	l := noiselessLidar()
	scan := l.Scan(nil, geo.Point{}, 0, []Target{{Position: geo.Point{Y: 50}, Radius: 0.2}})
	if _, ok := NearestAhead(scan, math.Pi); ok {
		t.Fatal("target beyond range reported")
	}
	for _, r := range scan {
		if r.Hit {
			t.Fatal("phantom hit")
		}
	}
}

func TestLidarFOVRespected(t *testing.T) {
	cfg := DefaultHokuyo()
	cfg.FOV = math.Pi / 2 // ±45°
	cfg.RangeNoiseSigma = 0
	l := NewLidar(cfg, nil)
	// Target directly behind: outside the FOV.
	scan := l.Scan(nil, geo.Point{}, 0, []Target{{Position: geo.Point{Y: -2}, Radius: 0.3}})
	for _, r := range scan {
		if r.Hit {
			t.Fatal("target behind the scanner seen")
		}
	}
}

func TestLidarAngles(t *testing.T) {
	l := noiselessLidar()
	scan := l.Scan(nil, geo.Point{}, 0, nil)
	if len(scan) != l.Config().Beams {
		t.Fatalf("beams %d", len(scan))
	}
	if math.Abs(scan[0].Angle+l.Config().FOV/2) > 1e-9 {
		t.Fatalf("first beam angle %v", scan[0].Angle)
	}
	if math.Abs(scan[len(scan)-1].Angle-l.Config().FOV/2) > 1e-9 {
		t.Fatalf("last beam angle %v", scan[len(scan)-1].Angle)
	}
}

func TestLidarHeadingRotatesScan(t *testing.T) {
	l := noiselessLidar()
	// Facing east, target to the east: dead ahead.
	scan := l.Scan(nil, geo.Point{}, math.Pi/2, []Target{{Position: geo.Point{X: 2}, Radius: 0.2}})
	r, ok := NearestAhead(scan, 0.05)
	if !ok || math.Abs(r.Range-1.8) > 0.02 {
		t.Fatalf("rotated scan: ok=%v range=%v", ok, r.Range)
	}
}

func TestLidarNoise(t *testing.T) {
	cfg := DefaultHokuyo()
	l := NewLidar(cfg, rand.New(rand.NewSource(1)))
	var ranges []float64
	for i := 0; i < 20; i++ {
		scan := l.Scan(nil, geo.Point{}, 0, []Target{{Position: geo.Point{Y: 2}, Radius: 0.2}})
		if r, ok := NearestAhead(scan, 0.05); ok {
			ranges = append(ranges, r.Range)
		}
	}
	if len(ranges) < 10 {
		t.Fatal("too few returns")
	}
	allSame := true
	for _, r := range ranges[1:] {
		if r != ranges[0] {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("noisy LiDAR returned identical ranges")
	}
}

// Config returns the LiDAR parameters.
func (l *Lidar) Config() LidarConfig { return l.cfg }
