package track

import (
	"math"
	"math/rand"
	"testing"

	"itsbed/internal/geo"
)

func TestLineValidation(t *testing.T) {
	if _, err := NewLine([]geo.Point{{X: 0, Y: 0}}); err == nil {
		t.Fatal("single-point line accepted")
	}
	if _, err := NewLine([]geo.Point{{X: 0, Y: 0}, {X: 0, Y: 0}}); err == nil {
		t.Fatal("duplicate points accepted")
	}
}

func TestLineLengthAndPointAt(t *testing.T) {
	l := MustLine([]geo.Point{{X: 0, Y: 0}, {X: 0, Y: 3}, {X: 4, Y: 3}})
	if l.Length() != 7 {
		t.Fatalf("length %v", l.Length())
	}
	if p := l.PointAt(0); p != (geo.Point{X: 0, Y: 0}) {
		t.Fatalf("start %v", p)
	}
	if p := l.PointAt(3); p.DistanceTo(geo.Point{X: 0, Y: 3}) > 1e-9 {
		t.Fatalf("knee %v", p)
	}
	if p := l.PointAt(5); p.DistanceTo(geo.Point{X: 2, Y: 3}) > 1e-9 {
		t.Fatalf("mid second leg %v", p)
	}
	// Clamping beyond the ends.
	if p := l.PointAt(-1); p != (geo.Point{X: 0, Y: 0}) {
		t.Fatal("negative arc not clamped")
	}
	if p := l.PointAt(100); p != (geo.Point{X: 4, Y: 3}) {
		t.Fatal("overlong arc not clamped")
	}
}

func TestLineHeadingAt(t *testing.T) {
	l := MustLine([]geo.Point{{X: 0, Y: 0}, {X: 0, Y: 3}, {X: 4, Y: 3}})
	if h := l.HeadingAt(1); math.Abs(h) > 1e-9 {
		t.Fatalf("first leg heading %v, want north", h)
	}
	if h := l.HeadingAt(5); math.Abs(h-math.Pi/2) > 1e-9 {
		t.Fatalf("second leg heading %v, want east", h)
	}
}

func TestLineProject(t *testing.T) {
	l := MustLine([]geo.Point{{X: 0, Y: 0}, {X: 0, Y: 10}})
	s, lat := l.Project(geo.Point{X: 0.5, Y: 4})
	if math.Abs(s-4) > 1e-9 {
		t.Fatalf("arc %v", s)
	}
	// Northbound travel: +X is to the right.
	if math.Abs(lat-0.5) > 1e-9 {
		t.Fatalf("lateral %v, want +0.5 (right)", lat)
	}
	_, latLeft := l.Project(geo.Point{X: -0.5, Y: 4})
	if math.Abs(latLeft+0.5) > 1e-9 {
		t.Fatalf("lateral %v, want -0.5 (left)", latLeft)
	}
}

func TestCameraFrustum(t *testing.T) {
	cam := Camera{
		Position: geo.Point{X: 0, Y: 0},
		Facing:   math.Pi, // south
		FOV:      90 * math.Pi / 180,
		MaxRange: 10,
	}
	if !cam.Sees(geo.Point{X: 0, Y: -5}) {
		t.Fatal("point straight ahead not seen")
	}
	if cam.Sees(geo.Point{X: 0, Y: 5}) {
		t.Fatal("point behind seen")
	}
	if cam.Sees(geo.Point{X: 0, Y: -15}) {
		t.Fatal("point beyond range seen")
	}
	// 44° off-axis: inside the 45° half-FOV.
	if !cam.Sees(geo.Point{X: math.Sin(0.76) * 3, Y: -math.Cos(0.76) * 3}) {
		t.Fatal("point just inside FOV rejected")
	}
	// 50° off-axis: outside.
	if cam.Sees(geo.Point{X: math.Sin(0.88) * 3, Y: -math.Cos(0.88) * 3}) {
		t.Fatal("point outside FOV accepted")
	}
	if cam.Sees(cam.Position) {
		t.Fatal("camera sees itself")
	}
}

func TestPaperLabLayout(t *testing.T) {
	ly := PaperLab()
	if ly.ActionPointDistance != 1.52 {
		t.Fatalf("action point %v, want the paper's 1.52 m", ly.ActionPointDistance)
	}
	if ly.Line.Length() < 5 {
		t.Fatal("approach line too short for a realistic run")
	}
	// The camera watches the line.
	if !ly.Camera.Sees(ly.Line.PointAt(ly.Line.Length() - 0.5)) {
		t.Fatal("camera does not see the end of the line")
	}
	arc, ok := ly.ActionPointArc()
	if !ok {
		t.Fatal("no action point on the line")
	}
	d := ly.Camera.DistanceTo(ly.Line.PointAt(arc))
	if d > ly.ActionPointDistance+0.01 {
		t.Fatalf("action point arc at distance %v", d)
	}
}

func TestIntersectionLayout(t *testing.T) {
	ly := Intersection()
	if _, ok := ly.ActionPointArc(); !ok {
		t.Fatal("intersection layout has no action point")
	}
}

func TestActionPointArcAbsent(t *testing.T) {
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		t.Fatal(err)
	}
	ly := Layout{
		Line:                MustLine([]geo.Point{{X: 100, Y: 0}, {X: 100, Y: 5}}),
		Camera:              Camera{Position: geo.Point{}, MaxRange: 10},
		ActionPointDistance: 1,
		Frame:               frame,
	}
	if _, ok := ly.ActionPointArc(); ok {
		t.Fatal("action point found on a line that never approaches the camera")
	}
}

func TestLoopAccessorsWrap(t *testing.T) {
	// A 10×10 closed square, perimeter 40.
	sq := MustLine([]geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 0, Y: 10}, {X: 0, Y: 0}})
	if sq.Length() != 40 {
		t.Fatalf("perimeter %v", sq.Length())
	}
	for _, s := range []float64{0, 5, 15, 39.5} {
		if got, want := sq.LoopPointAt(s+40), sq.LoopPointAt(s); got != want {
			t.Fatalf("s=%v: wrapped point %v, want %v", s, got, want)
		}
		if got, want := sq.LoopHeadingAt(s+80), sq.LoopHeadingAt(s); got != want {
			t.Fatalf("s=%v: wrapped heading %v, want %v", s, got, want)
		}
	}
	// Negative arc lengths walk backwards around the loop.
	if got, want := sq.LoopPointAt(-5), sq.LoopPointAt(35); got != want {
		t.Fatalf("negative wrap: %v, want %v", got, want)
	}
	// Non-finite inputs collapse to the start rather than panic.
	start := sq.PointAt(0)
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := sq.LoopPointAt(s); got != start {
			t.Fatalf("non-finite arc %v: %v", s, got)
		}
	}
}

// TestWithinMatchesProject pins Within to |lateral| <= r of Project on
// random points, on points placed exactly r from a segment and one ulp
// either side, near the joints of a bent line, and for radii and
// points outside the squared-distance range (negative, zero, tiny,
// huge, NaN and infinite).
func TestWithinMatchesProject(t *testing.T) {
	lines := []*Line{
		MustLine([]geo.Point{{X: 0, Y: 0}, {X: 0, Y: 6}}),
		MustLine([]geo.Point{{X: -3, Y: -3}, {X: 3, Y: 3}}),
		MustLine([]geo.Point{{X: 0, Y: -2}, {X: 0, Y: 0.6}, {X: 0.4, Y: 1.2}, {X: 0.3, Y: 2}, {X: -0.2, Y: 3}}),
	}
	check := func(l *Line, p geo.Point, r float64) {
		t.Helper()
		_, lateral := l.Project(p)
		if got, want := l.Within(p, r), math.Abs(lateral) <= r; got != want {
			t.Fatalf("Within(%v, %v) = %v, |lateral| = %v", p, r, got, math.Abs(lateral))
		}
	}
	rng := rand.New(rand.NewSource(1))
	radii := []float64{0.025, 0.05, 1e-9, 3, 0, -0.025, 1e-160, 1e-200, 1e160, math.NaN(), math.Inf(1)}
	for _, l := range lines {
		for _, r := range radii {
			for i := 0; i < 300; i++ {
				check(l, geo.Point{X: 4 * (rng.Float64() - 0.5), Y: 8*rng.Float64() - 2}, r)
			}
			for _, p := range []geo.Point{{X: math.NaN()}, {X: math.Inf(1), Y: 1}, {X: 1e300, Y: -1e300}, {X: 1e-310}} {
				check(l, p, r)
			}
		}
		// Points exactly r off the first segment's interior, and one
		// ulp either side along x.
		for i := 0; i < 300; i++ {
			r := 0.01 + 0.1*rng.Float64()
			a, b := l.points[0], l.points[1]
			f := rng.Float64()
			base := geo.Point{X: a.X + f*(b.X-a.X), Y: a.Y + f*(b.Y-a.Y)}
			dir := b.Sub(a).Scale(1 / b.Sub(a).Norm())
			side := 1.0
			if i%2 == 1 {
				side = -1
			}
			p := geo.Point{X: base.X - side*dir.Y*r, Y: base.Y + side*dir.X*r}
			for _, x := range []float64{p.X, math.Nextafter(p.X, math.Inf(1)), math.Nextafter(p.X, math.Inf(-1))} {
				check(l, geo.Point{X: x, Y: p.Y}, r)
			}
		}
	}
	// On the axis-aligned line the offset is exact, so these sit on
	// the boundary to the last bit.
	for _, x := range []float64{0.025, -0.025, math.Nextafter(0.025, 1), math.Nextafter(-0.025, -1), math.Nextafter(0.025, 0)} {
		check(lines[0], geo.Point{X: x, Y: 1}, 0.025)
	}
}
