package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestFrameRoundTrip(t *testing.T) {
	frame, err := NewFrame(CISTERLab)
	if err != nil {
		t.Fatal(err)
	}
	f := func(dx, dy int16) bool {
		p := Point{X: float64(dx) / 10, Y: float64(dy) / 10} // ±3.2 km
		ll := frame.ToGeodetic(p)
		back := frame.ToLocal(ll)
		return almostEqual(back.X, p.X, 1e-6) && almostEqual(back.Y, p.Y, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameOriginMapsToZero(t *testing.T) {
	frame, err := NewFrame(CISTERLab)
	if err != nil {
		t.Fatal(err)
	}
	p := frame.ToLocal(CISTERLab)
	if !almostEqual(p.X, 0, 1e-9) || !almostEqual(p.Y, 0, 1e-9) {
		t.Fatalf("origin maps to %v", p)
	}
}

func TestFrameMetricScale(t *testing.T) {
	frame, err := NewFrame(LatLon{Lat: 0, Lon: 0})
	if err != nil {
		t.Fatal(err)
	}
	// One degree of latitude at the equator is ~110.57 km.
	p := frame.ToLocal(LatLon{Lat: 1, Lon: 0})
	if p.Y < 110_000 || p.Y > 111_000 {
		t.Fatalf("1° latitude = %.0f m, want ~110.6 km", p.Y)
	}
}

func TestInvalidFrameOrigin(t *testing.T) {
	if _, err := NewFrame(LatLon{Lat: 91, Lon: 0}); err == nil {
		t.Fatal("invalid origin accepted")
	}
	if _, err := NewFrame(LatLon{Lat: math.NaN(), Lon: 0}); err == nil {
		t.Fatal("NaN origin accepted")
	}
}

// TestLocalDistanceMatchesFrame holds LocalDistance to the Frame
// measurement it replaces on the CA trigger path, bit for bit.
func TestLocalDistanceMatchesFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		origin := LatLon{Lat: rng.Float64()*178 - 89, Lon: rng.Float64()*358 - 179}
		p := LatLon{Lat: origin.Lat + rng.NormFloat64()*1e-3, Lon: origin.Lon + rng.NormFloat64()*1e-3}
		f, err := NewFrame(origin)
		if err != nil {
			t.Fatal(err)
		}
		want := f.ToLocal(p).DistanceTo(Point{})
		if got, ok := LocalDistance(origin, p); !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("LocalDistance(%v, %v) = %v, %v; frame gives %v", origin, p, got, ok, want)
		}
	}
	if _, ok := LocalDistance(LatLon{Lat: 91}, CISTERLab); ok {
		t.Fatal("LocalDistance accepted an invalid origin")
	}
}

func TestHeadingConventions(t *testing.T) {
	cases := []struct {
		v    Vector
		want float64
	}{
		{Vector{X: 0, Y: 1}, 0},                // north
		{Vector{X: 1, Y: 0}, math.Pi / 2},      // east
		{Vector{X: 0, Y: -1}, math.Pi},         // south
		{Vector{X: -1, Y: 0}, 3 * math.Pi / 2}, // west
	}
	for _, c := range cases {
		if !almostEqual(c.v.Heading(), c.want, 1e-9) {
			t.Fatalf("heading of %v = %v, want %v", c.v, c.v.Heading(), c.want)
		}
	}
}

func TestHeadingVectorInvertsHeading(t *testing.T) {
	f := func(h16 uint16) bool {
		h := float64(h16) / 65535 * 2 * math.Pi
		v := HeadingVector(h)
		return almostEqual(NormalizeHeading(v.Heading()), NormalizeHeading(h), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeadingDiff(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, math.Pi / 2, math.Pi / 2},
		{math.Pi / 2, 0, -math.Pi / 2},
		{0.1, 2*math.Pi - 0.1, -0.2},
		{2*math.Pi - 0.1, 0.1, 0.2},
	}
	for _, c := range cases {
		if !almostEqual(HeadingDiff(c.a, c.b), c.want, 1e-9) {
			t.Fatalf("HeadingDiff(%v,%v)=%v, want %v", c.a, c.b, HeadingDiff(c.a, c.b), c.want)
		}
	}
}

func TestHeadingDiffBounded(t *testing.T) {
	f := func(a, b uint16) bool {
		d := HeadingDiff(float64(a)/1000, float64(b)/1000)
		return d > -math.Pi-1e-9 && d <= math.Pi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentPointAt(t *testing.T) {
	s := Segment{A: Point{0, 0}, B: Point{4, 8}}
	mid := s.PointAt(0.5)
	if mid.DistanceTo(Point{2, 4}) > 1e-9 {
		t.Fatalf("midpoint %v", mid)
	}
}

func TestVectorAlgebra(t *testing.T) {
	v := Vector{3, 4}
	if !almostEqual(v.Norm(), 5, 1e-12) {
		t.Fatal("norm")
	}
	if v.Scale(2) != (Vector{6, 8}) {
		t.Fatal("scale")
	}
	if !almostEqual(v.Dot(Vector{1, 0}), 3, 1e-12) {
		t.Fatal("dot")
	}
	if !almostEqual(Vector{1, 0}.Cross(Vector{0, 1}), 1, 1e-12) {
		t.Fatal("cross")
	}
}

func TestLatLonValid(t *testing.T) {
	if !(LatLon{Lat: 41, Lon: -8}).Valid() {
		t.Fatal("valid coordinates rejected")
	}
	for _, p := range []LatLon{{91, 0}, {-91, 0}, {0, 181}, {0, -181}} {
		if p.Valid() {
			t.Fatalf("invalid coordinates %v accepted", p)
		}
	}
}

func TestDistanceSymmetricNonNegative(t *testing.T) {
	f := func(ax, ay, bx, by int8) bool {
		a := Point{float64(ax), float64(ay)}
		b := Point{float64(bx), float64(by)}
		return almostEqual(a.DistanceTo(b), b.DistanceTo(a), 1e-12) && a.DistanceTo(b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDistanceThresholdsMatchHypot pins DistanceLess and DistanceAtMost
// to the math.Hypot comparisons they replace: at points a few ulps
// either side of the scenario thresholds (0.10 m and 1.52 m) in every
// direction, on the axes where the distance is exact, at random
// points, and for NaN, infinite, zero, negative, tiny and huge inputs.
func TestDistanceThresholdsMatchHypot(t *testing.T) {
	check := func(p, q Point, r float64) {
		t.Helper()
		d := p.DistanceTo(q)
		if got, want := p.DistanceLess(q, r), d < r; got != want {
			t.Fatalf("%v.DistanceLess(%v, %v) = %v, Hypot gives %v", p, q, r, got, d)
		}
		if got, want := p.DistanceAtMost(q, r), d <= r; got != want {
			t.Fatalf("%v.DistanceAtMost(%v, %v) = %v, Hypot gives %v", p, q, r, got, d)
		}
	}
	camera := Point{X: 0, Y: 6.6}
	rng := rand.New(rand.NewSource(1))
	for _, r := range []float64{0.10, 1.52} {
		// Walk a few ulps either side of r, along the axes (where
		// q±r is the distance up to the rounding of the sum) and in
		// random directions.
		for ulps := -4; ulps <= 4; ulps++ {
			d := r
			for i := 0; i < ulps; i++ {
				d = math.Nextafter(d, math.Inf(1))
			}
			for i := 0; i > ulps; i-- {
				d = math.Nextafter(d, 0)
			}
			for _, p := range []Point{{camera.X, camera.Y - d}, {camera.X + d, camera.Y}, {-d, 0}, {0, d}} {
				check(p, camera, r)
			}
			for i := 0; i < 200; i++ {
				a := 2 * math.Pi * rng.Float64()
				check(Point{camera.X + d*math.Sin(a), camera.Y + d*math.Cos(a)}, camera, r)
			}
		}
		for i := 0; i < 2000; i++ {
			check(Point{4 * (rng.Float64() - 0.5), 8 * rng.Float64()}, camera, r)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	odd := []Point{{nan, 0}, {0, nan}, {inf, 0}, {0, -inf}, {inf, inf}, {-inf, 1}, {1e300, -1e300}, {1e-310, 0}, {0, 0}}
	for _, r := range []float64{0.10, 1.52, 0, -0.1, 1e-160, 1e160, nan, inf, -inf} {
		for _, p := range odd {
			check(p, camera, r)
			check(camera, p, r)
			check(p, p, r)
		}
		check(Point{0.05, 0}, Point{}, r)
	}
}
