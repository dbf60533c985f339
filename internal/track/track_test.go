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

// closestPoint returns the point on seg closest to p and its parameter
// t clamped to [0,1], in the arithmetic Within and Project follow.
func closestPoint(seg geo.Segment, p geo.Point) (geo.Point, float64) {
	d := seg.B.Sub(seg.A)
	l2 := d.Dot(d)
	if l2 == 0 {
		return seg.A, 0
	}
	t := p.Sub(seg.A).Dot(d) / l2
	t = math.Max(0, math.Min(1, t))
	return seg.PointAt(t), t
}

// projectHypot is Project as it stood before ranking segments by
// squared distance: every segment's distance and length by math.Hypot.
func projectHypot(l *Line, p geo.Point) (s, lateral float64) {
	best := math.Inf(1)
	for i := 1; i < len(l.points); i++ {
		seg := geo.Segment{A: l.points[i-1], B: l.points[i]}
		c, t := closestPoint(seg, p)
		d := c.DistanceTo(p)
		if d < best {
			best = d
			s = l.cumulative[i-1] + t*seg.A.DistanceTo(seg.B)
			if seg.B.Sub(seg.A).Cross(p.Sub(c)) < 0 {
				lateral = d
			} else {
				lateral = -d
			}
		}
	}
	return s, lateral
}

// TestProjectMatchesHypotForm pins Project's (s, lateral) to the bit
// against projectHypot on random polylines, at random points, at the
// vertices, on the bisectors of every corner (points equidistant from
// two segments, up to rounding), at exact ties on axis-aligned
// corners and between parallel segments, on corners so small or large
// that squared distances leave the normal range, and at non-finite
// points.
func TestProjectMatchesHypotForm(t *testing.T) {
	check := func(l *Line, p geo.Point) {
		t.Helper()
		s, lat := l.Project(p)
		ws, wlat := projectHypot(l, p)
		if math.Float64bits(s) != math.Float64bits(ws) || math.Float64bits(lat) != math.Float64bits(wlat) {
			t.Fatalf("Project(%v) on %v = (%v, %v), Hypot form (%v, %v)", p, l.points, s, lat, ws, wlat)
		}
	}
	rng := rand.New(rand.NewSource(1))
	lines := []*Line{
		PaperLab().Line,
		MustLine([]geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}}),
		MustLine([]geo.Point{{X: 0, Y: 0}, {X: 0, Y: 2}, {X: 1, Y: 2}, {X: 1, Y: 0}}),
		MustLine([]geo.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 1}, {X: 0, Y: 1}, {X: 0, Y: 2}, {X: 4, Y: 2}}),
	}
	for len(lines) < 60 {
		pts := []geo.Point{{X: 10 * (rng.Float64() - 0.5), Y: 10 * (rng.Float64() - 0.5)}}
		for len(pts) < 2+rng.Intn(7) {
			last := pts[len(pts)-1]
			pts = append(pts, geo.Point{X: last.X + 4*(rng.Float64()-0.5), Y: last.Y + 4*(rng.Float64()-0.5)})
		}
		lines = append(lines, MustLine(pts))
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, l := range lines {
		for i := 0; i < 200; i++ {
			check(l, geo.Point{X: 16 * (rng.Float64() - 0.5), Y: 16 * (rng.Float64() - 0.5)})
		}
		for i, v := range l.points {
			check(l, v)
			if i == 0 || i == len(l.points)-1 {
				continue
			}
			// Internal and external bisectors of the corner at v.
			in, out := l.points[i-1].Sub(v), l.points[i+1].Sub(v)
			in, out = in.Scale(1/in.Norm()), out.Scale(1/out.Norm())
			bisector := geo.Vector{X: in.X + out.X, Y: in.Y + out.Y}
			for _, dir := range []geo.Vector{bisector, bisector.Scale(-1)} {
				for k := 0; k < 20; k++ {
					p := v.Add(dir.Scale(rng.Float64()))
					check(l, p)
					check(l, geo.Point{X: math.Nextafter(p.X, inf), Y: p.Y})
					check(l, geo.Point{X: p.X, Y: math.Nextafter(p.Y, -inf)})
				}
			}
		}
		for _, p := range []geo.Point{{X: nan}, {Y: nan}, {X: inf, Y: 1}, {X: -inf, Y: inf}, {X: 1e300, Y: -1e300}, {X: 1e-310}, {X: 1e200, Y: 1e200}} {
			check(l, p)
		}
	}
	// Corners at the origin a few 1e-160 or 1e154 across, where
	// squared distances go subnormal or overflow and only math.Hypot
	// can rank the segments.
	for _, scale := range []float64{1e-160, 1e-155, 1e153, 1e154} {
		for i := 0; i < 5000; i++ {
			a := geo.Point{X: 4 * scale * (rng.Float64() - 0.5), Y: 4 * scale * (rng.Float64() - 0.5)}
			c := geo.Point{X: 4 * scale * (rng.Float64() - 0.5), Y: 4 * scale * (rng.Float64() - 0.5)}
			if l, err := NewLine([]geo.Point{a, {}, c}); err == nil {
				check(l, geo.Point{X: scale * (rng.Float64() - 0.5), Y: scale * (rng.Float64() - 0.5)})
			}
		}
	}
	// The first segment is y1 from the origin, the smallest distance
	// whose square overflows; the last ends the same math.Hypot
	// distance away, but its squared distance, 1.7976931348623155e308,
	// is finite. The first must still win.
	y1 := math.Sqrt(math.MaxFloat64)
	for y1*y1 <= math.MaxFloat64 {
		y1 = math.Nextafter(y1, inf)
	}
	c := geo.Point{X: -1.2655558324183513e+154, Y: 4.427884030710484e+153}
	check(MustLine([]geo.Point{{X: 1, Y: y1}, {X: -1, Y: y1}, {X: -1, Y: 3e154}, {X: -3e154, Y: 3e154},
		{X: -3e154, Y: 2 * c.Y}, {X: 2 * c.X, Y: 2 * c.Y}, c}), geo.Point{})
	// Exact ties: the corner's diagonal and the midline between the
	// parallel legs of the U and the zigzag.
	for _, x := range []float64{0.25, 0.5, 0.75} {
		check(lines[1], geo.Point{X: x, Y: 1 - x})
		check(lines[2], geo.Point{X: 0.5, Y: x})
		check(lines[3], geo.Point{X: 4 * x, Y: 0.5})
		check(lines[3], geo.Point{X: 4 * x, Y: 1.5})
	}
}

// TestRowSpansAgreeWithWithin classifies random rows against random
// polylines, and rows placed to pass exactly r from a segment or an
// end point at one sample, and requires Within to be true at every
// sample in a certain span and false at every sample outside all
// possible spans.
func TestRowSpansAgreeWithWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lines := []*Line{
		MustLine([]geo.Point{{X: 0, Y: 0}, {X: 0, Y: 6}}),
		MustLine([]geo.Point{{X: -3, Y: -3}, {X: 3, Y: 3}}),
		MustLine([]geo.Point{{X: 0, Y: -2}, {X: 0, Y: 0.6}, {X: 0.4, Y: 1.2}, {X: 0.3, Y: 2}, {X: -0.2, Y: 3}}),
	}
	for len(lines) < 8 {
		pts := []geo.Point{{X: rng.Float64(), Y: rng.Float64()}}
		for len(pts) < 2+rng.Intn(5) {
			last := pts[len(pts)-1]
			pts = append(pts, geo.Point{X: last.X + rng.NormFloat64(), Y: last.Y + rng.NormFloat64()})
		}
		lines = append(lines, MustLine(pts))
	}
	var spans []RowSpan
	certain, tested := 0, 0
	check := func(l *Line, from, to geo.Point, n int, r float64) {
		t.Helper()
		var ok bool
		spans, ok = l.RowSpans(spans[:0], from, to, n, r)
		if !ok {
			t.Fatalf("row %v→%v, n %d, r %v: not classified", from, to, n, r)
		}
		for k := 0; k < n; k++ {
			f := float64(k) / float64(n-1)
			p := geo.Point{X: from.X + f*(to.X-from.X), Y: from.Y + f*(to.Y-from.Y)}
			in, near := false, false
			for _, s := range spans {
				in = in || s.InLo <= k && k < s.InHi
				near = near || s.Lo <= k && k < s.Hi
			}
			switch within := l.Within(p, r); {
			case in && !within:
				t.Fatalf("row %v→%v, n %d, r %v: sample %d in a certain span but not within", from, to, n, r, k)
			case !near && within:
				t.Fatalf("row %v→%v, n %d, r %v: sample %d within but outside every span", from, to, n, r, k)
			case in:
				certain++
			case near:
				tested++
			}
		}
	}
	for _, l := range lines {
		for i := 0; i < 400; i++ {
			r := []float64{0.025, 0.3, 1e-9, 2}[i%4]
			n := 2 + rng.Intn(200)
			from := geo.Point{X: 6*rng.Float64() - 3, Y: 8*rng.Float64() - 3}
			dir := rng.Float64() * 2 * math.Pi
			length := 0.1 + 2*rng.Float64()
			to := geo.Point{X: from.X + length*math.Cos(dir), Y: from.Y + length*math.Sin(dir)}
			check(l, from, to, n, r)
			// The same row shifted so that sample k0 lies r off a
			// segment's interior or r from one of its end points.
			seg := 1 + rng.Intn(len(l.points)-1)
			a, b := l.points[seg-1], l.points[seg]
			base, off := a, b.Sub(a).Scale(-1/l.length[seg-1])
			if i%3 != 0 {
				base = geo.Point{X: a.X + rng.Float64()*(b.X-a.X), Y: a.Y + rng.Float64()*(b.Y-a.Y)}
				off = geo.Vector{X: -off.Y, Y: off.X}
				if i%2 == 0 {
					off = off.Scale(-1)
				}
			}
			k0 := rng.Intn(n)
			f := float64(k0) / float64(n-1)
			edge := base.Add(off.Scale(r))
			shift := geo.Vector{X: edge.X - (from.X + f*(to.X-from.X)), Y: edge.Y - (from.Y + f*(to.Y-from.Y))}
			check(l, from.Add(shift), to.Add(shift), n, r)
		}
	}
	if certain == 0 || tested == 0 {
		t.Fatalf("%d samples in certain spans and %d at their edges: the rows miss the line", certain, tested)
	}
	t.Logf("%d samples in certain spans, %d at their edges", certain, tested)
}

// TestRowSpansDeclines lists the rows RowSpans leaves to the caller.
func TestRowSpansDeclines(t *testing.T) {
	l := MustLine([]geo.Point{{X: 0, Y: 0}, {X: 0, Y: 6}})
	from, to := geo.Point{X: -0.4, Y: 1}, geo.Point{X: 0.4, Y: 1}
	for _, c := range []struct {
		name     string
		from, to geo.Point
		n        int
		r        float64
	}{
		{"one sample", from, to, 1, 0.025},
		{"no step", from, from, 160, 0.025},
		{"NaN row", geo.Point{X: math.NaN(), Y: 1}, to, 160, 0.025},
		{"infinite row", from, geo.Point{X: math.Inf(1), Y: 1}, 160, 0.025},
		{"far row", geo.Point{X: -1e101, Y: 1}, to, 160, 0.025},
		{"r below Within's range", from, to, 160, math.Nextafter(1e-150, 0)},
		{"r above Within's range", from, to, 160, math.Nextafter(1e150, math.Inf(1))},
		{"zero r", from, to, 160, 0},
		{"NaN r", from, to, 160, math.NaN()},
	} {
		if spans, ok := l.RowSpans(nil, c.from, c.to, c.n, c.r); ok || spans != nil {
			t.Errorf("%s: ok %v, spans %v", c.name, ok, spans)
		}
	}
	if spans, ok := l.RowSpans(nil, from, to, 160, 0.025); !ok || len(spans) != 1 || spans[0].InLo >= spans[0].InHi {
		t.Errorf("row across the line: ok %v, spans %v", ok, spans)
	}
}

// FuzzLineEndMatchesProject checks AtEnd against Project's arc length
// (s >= Length()-eps) at eps 0 and 1e-6, on 2-point and multi-point
// lines and on lines with a segment too short for its squared length
// to be represented (a zero-length segment to the arithmetic), for the
// fuzzed point and for points planted along the last segment: on the
// end threshold, one ulp and fractions of AtEnd's band either side of
// it, and beyond the end, each also pushed off the line sideways.
func FuzzLineEndMatchesProject(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 6.0, 0.0, 0.0, uint8(0), 0.0, 5.9999995, 0.0)
	f.Add(0.0, 0.0, 0.0, 6.0, 0.0, 0.0, uint8(4), 0.01, 5.999999, 0.3)
	f.Add(0.0, -2.0, 0.0, 0.6, 0.4, 1.2, uint8(1), 0.4, 1.3, -0.05)
	f.Add(0.0, 0.0, 4.0, 0.0, 0.0, 0.5, uint8(5), 0.2, 0.6, 1.5)
	f.Add(-3.0, -3.0, 3.0, 3.0, 0.0, 0.0, uint8(2), 3.0, 3.0, 0.0)
	f.Add(1.0, 1.0, 1.0, 2.0, 0.0, 0.0, uint8(7), 1.0, 2.0, 1e-9)
	f.Add(0.0, 0.0, 1e-7, 0.0, 0.0, 0.0, uint8(4), 1e-7, 0.0, 0.0)
	f.Add(1e120, 0.0, 0.0, 1.0, 0.0, 0.0, uint8(0), 0.0, 1.0, 0.0)
	f.Add(0.0, 0.0, 0.0, 6.0, 0.0, 0.0, uint8(0), math.NaN(), 6.0, 0.0)
	f.Add(0.0, 0.0, 0.0, 1e-150, 0.0, 0.0, uint8(3), 0.0, 1e-150, 0.0)
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1, x2, y2 float64, shape uint8, px, py, side float64) {
		pts := []geo.Point{{X: x0, Y: y0}, {X: x1, Y: y1}}
		switch shape % 4 {
		case 1:
			pts = append(pts, geo.Point{X: x2, Y: y2})
		case 2:
			// A first segment whose squared length underflows.
			pts = []geo.Point{{X: x0 - 1e-170, Y: y0}, {X: x0, Y: y0}, {X: x1, Y: y1}}
		case 3:
			// A last segment whose squared length underflows.
			pts = append(pts, geo.Point{X: x1, Y: y1 + 1e-170})
		}
		l, err := NewLine(pts)
		if err != nil {
			return
		}
		eps := 0.0
		if shape&4 != 0 {
			eps = 1e-6
		}
		check := func(p geo.Point) {
			t.Helper()
			s, _ := l.Project(p)
			if got, want := l.AtEnd(p, eps), s >= l.Length()-eps; got != want {
				t.Fatalf("line %v: AtEnd(%v, %g) = %v, Project s = %v, Length-eps = %v",
					pts, p, eps, got, s, l.Length()-eps)
			}
		}
		check(geo.Point{X: px, Y: py})

		n := len(pts)
		a, b := pts[n-2], pts[n-1]
		length := l.length[n-2]
		ux, uy := (b.X-a.X)/length, (b.Y-a.Y)/length
		end := l.Length() - eps - l.cumulative[n-2]
		scale := l.Length() + eps + math.Abs(a.X) + math.Abs(a.Y) + length
		for _, along := range []float64{
			end, math.Nextafter(end, math.Inf(1)), math.Nextafter(end, math.Inf(-1)),
			end + 0.5e-9*scale, end - 0.5e-9*scale, end + 2e-9*scale, end - 2e-9*scale,
			end + 1e-6*scale, end - 1e-6*scale, length, length * (1 + math.Abs(side)),
		} {
			on := geo.Point{X: a.X + along*ux, Y: a.Y + along*uy}
			check(on)
			check(geo.Point{X: on.X - side*uy, Y: on.Y + side*ux})
		}
	})
}
