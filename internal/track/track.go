// Package track describes the laboratory floor layout: the line the
// robotic vehicle follows, the road-side camera pose, and the Action
// Point — the threshold distance to the camera at which the hazard
// advertisement service must trigger emergency braking (Fig. 8 of the
// paper).
package track

import (
	"fmt"
	"math"

	"itsbed/internal/geo"
)

// Line is the guide line on the floor as a polyline of local-plane
// points. The vehicle follows it from the first point towards the
// last.
type Line struct {
	points []geo.Point
	// cumulative[i] is the arc length at points[i].
	cumulative []float64
	// length[i] is the length of the segment from points[i] to
	// points[i+1].
	length []float64
	// extent is the largest coordinate magnitude of the points.
	extent float64
}

// NewLine builds a line from at least two points.
func NewLine(points []geo.Point) (*Line, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("track: line needs at least 2 points, have %d", len(points))
	}
	pts := make([]geo.Point, len(points))
	copy(pts, points)
	// One allocation holds both arrays.
	buf := make([]float64, 2*len(pts)-1)
	cum, length := buf[:len(pts):len(pts)], buf[len(pts):]
	extent := max(math.Abs(pts[0].X), math.Abs(pts[0].Y))
	for i := 1; i < len(pts); i++ {
		length[i-1] = pts[i].DistanceTo(pts[i-1])
		if length[i-1] == 0 {
			return nil, fmt.Errorf("track: duplicate consecutive point %d", i)
		}
		cum[i] = cum[i-1] + length[i-1]
		extent = max(extent, math.Abs(pts[i].X), math.Abs(pts[i].Y))
	}
	return &Line{points: pts, cumulative: cum, length: length, extent: extent}, nil
}

// MustLine is NewLine that panics on error, for static layouts.
func MustLine(points []geo.Point) *Line {
	l, err := NewLine(points)
	if err != nil {
		panic(err)
	}
	return l
}

// Length returns the total arc length of the line.
func (l *Line) Length() float64 { return l.cumulative[len(l.cumulative)-1] }

// PointAt returns the point at arc length s (clamped to the line).
func (l *Line) PointAt(s float64) geo.Point {
	if s <= 0 {
		return l.points[0]
	}
	if s >= l.Length() {
		return l.points[len(l.points)-1]
	}
	for i := 1; i < len(l.points); i++ {
		if s <= l.cumulative[i] {
			seg := geo.Segment{A: l.points[i-1], B: l.points[i]}
			t := (s - l.cumulative[i-1]) / (l.cumulative[i] - l.cumulative[i-1])
			return seg.PointAt(t)
		}
	}
	return l.points[len(l.points)-1]
}

// HeadingAt returns the compass heading of the line at arc length s.
func (l *Line) HeadingAt(s float64) float64 {
	if s < 0 {
		s = 0
	}
	if s >= l.Length() {
		s = l.Length() - 1e-9
	}
	for i := 1; i < len(l.points); i++ {
		if s <= l.cumulative[i] {
			return geo.Segment{A: l.points[i-1], B: l.points[i]}.Heading()
		}
	}
	return geo.Segment{A: l.points[len(l.points)-2], B: l.points[len(l.points)-1]}.Heading()
}

// wrap maps an arbitrary arc length onto [0, Length) for closed-loop
// traversal. Non-finite inputs collapse to 0.
func (l *Line) wrap(s float64) float64 {
	length := l.Length()
	if length <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return 0
	}
	// Floor-based reduction: cheaper than math.Mod and exact enough
	// for arc lengths (loop traversal tolerates sub-micron residue).
	s -= math.Floor(s/length) * length
	if s < 0 || s >= length {
		s = 0
	}
	return s
}

// LoopPointAt treats the line as a closed loop (last point joined back
// to the first by the caller's geometry) and returns the point at arc
// length s modulo the total length. Negative arc lengths walk
// backwards around the loop.
func (l *Line) LoopPointAt(s float64) geo.Point { return l.PointAt(l.wrap(s)) }

// LoopHeadingAt is HeadingAt with the arc length wrapped modulo the
// loop length.
func (l *Line) LoopHeadingAt(s float64) float64 { return l.HeadingAt(l.wrap(s)) }

// Project returns the arc length and lateral offset of p relative to
// the line. The offset is signed: positive when p lies to the right of
// the travel direction. The nearest segment wins, the first of equally
// near ones. Segments are ranked by squared distance; only two within
// a relative 1e-9 of each other, or a non-finite or vanishing distance,
// are ranked by math.Hypot, which is also the offset's magnitude.
func (l *Line) Project(p geo.Point) (s, lateral float64) {
	best := -1
	// d is the winner's math.Hypot distance, once known. A segment
	// whose squared distance is below lo wins outright; one above hi
	// loses outright; any other is decided by math.Hypot.
	d, known := math.Inf(1), true
	lo, hi := math.Inf(1), math.Inf(1)
	var t, ox, oy float64
	for i := 1; i < len(l.points); i++ {
		// Within's arithmetic.
		a, b := l.points[i-1], l.points[i]
		dx, dy := b.X-a.X, b.Y-a.Y
		ti, cx, cy := 0.0, a.X, a.Y
		if l2 := dx*dx + dy*dy; l2 != 0 {
			ti = max(0, min(1, ((p.X-a.X)*dx+(p.Y-a.Y)*dy)/l2))
			cx, cy = a.X+ti*dx, a.Y+ti*dy
		}
		oxi, oyi := p.X-cx, p.Y-cy
		d2 := oxi*oxi + oyi*oyi
		switch {
		case d2 < lo:
			known = false
		case d2 > hi:
			continue
		default:
			if !known {
				d, known = math.Hypot(ox, oy), true
			}
			di := math.Hypot(oxi, oyi)
			if !(di < d) {
				continue
			}
			d = di
		}
		best, t, ox, oy = i, ti, oxi, oyi
		lo, hi = 0, math.Inf(1)
		if d2 >= 1e-290 && d2*(1+1e-9) <= math.MaxFloat64 {
			lo, hi = d2*(1-1e-9), d2*(1+1e-9)
		}
	}
	if best < 0 {
		return 0, 0
	}
	if !known {
		d = math.Hypot(ox, oy)
	}
	a, b := l.points[best-1], l.points[best]
	s = l.cumulative[best-1] + t*l.length[best-1]
	// Sign via cross product of travel direction and offset.
	if (b.X-a.X)*oy-(b.Y-a.Y)*ox < 0 {
		return s, d // right of travel
	}
	return s, -d
}

// AtEnd reports whether p projects within eps of the line's end:
// exactly s >= Length()-eps for the arc length s Project returns, but
// decided from the last segment's along-track coordinate, computed
// here with Project's arithmetic. An earlier segment never projects
// past the start of the last one, where that coordinate begins, so a
// coordinate short of the threshold decides false whichever segment
// is nearest; past it, it decides true on a one-segment line. A
// coordinate within a relative 1e-9 of the threshold (far wider than
// anything by which the two evaluations can round apart), an input
// beyond 1e100 or non-finite, a segment whose squared length is not a
// normal float, or a coordinate past the threshold on a line with more
// segments (one of which may be nearer) falls back to Project.
func (l *Line) AtEnd(p geo.Point, eps float64) bool {
	n := len(l.points)
	end := l.Length() - eps
	start := l.cumulative[n-2]
	a, b := l.points[n-2], l.points[n-1]
	dx, dy := b.X-a.X, b.Y-a.Y
	px, py := p.X-a.X, p.Y-a.Y
	scale := l.Length() + math.Abs(eps) + math.Abs(px) + math.Abs(py)
	if l2 := dx*dx + dy*dy; l2 >= 1e-290 && scale <= 1e100 {
		t := max(0, min(1, (px*dx+py*dy)/l2))
		s := start + t*l.length[n-2]
		band := 1e-9 * scale
		if s < end-band {
			return false
		}
		if s > end+band && n == 2 {
			return true
		}
	}
	s, _ := l.Project(p)
	return s >= end
}

// Within reports whether p lies within r of the line: exactly
// math.Abs(lateral) <= r for the lateral offset Project returns, but
// decided from squared distances. Only a distance within a relative
// 1e-9 of r, far wider than the rounding of either form, or a
// non-finite one falls back to Project's math.Hypot comparison.
func (l *Line) Within(p geo.Point, r float64) bool {
	if !(r >= 1e-150 && r <= 1e150) {
		// Outside this range r² under- or overflows, or r is
		// negative or NaN.
		_, lateral := l.Project(p)
		return math.Abs(lateral) <= r
	}
	lo, hi := r*r*(1-1e-9), r*r*(1+1e-9)
	for i := 1; i < len(l.points); i++ {
		// The closest point on the segment, with the builtin
		// min and max (the same results as math.Min and math.Max,
		// which are not inlined) for the clamp.
		a, b := l.points[i-1], l.points[i]
		dx, dy := b.X-a.X, b.Y-a.Y
		cx, cy := a.X, a.Y
		if l2 := dx*dx + dy*dy; l2 != 0 {
			t := max(0, min(1, ((p.X-a.X)*dx+(p.Y-a.Y)*dy)/l2))
			cx, cy = a.X+t*dx, a.Y+t*dy
		}
		ox, oy := p.X-cx, p.Y-cy
		d2 := ox*ox + oy*oy
		if d2 < lo {
			return true
		}
		if !(d2 > hi && d2 <= math.MaxFloat64) {
			_, lateral := l.Project(p)
			return math.Abs(lateral) <= r
		}
	}
	return false
}

// RowSpan classifies the samples of a row against one segment of the
// line. No sample outside [Lo, Hi) lies within r of the segment, and
// every sample in [InLo, InHi) lies within r of it, so of the line.
// Either span may be empty (Lo == Hi, InLo == InHi).
type RowSpan struct {
	Lo, Hi     int
	InLo, InHi int
}

// RowSpans classifies the n evenly spaced samples of a straight row,
// sample 0 at from and sample n-1 at to, against the band of radius r
// around the line. It appends one span to dst for each segment the row
// passes near, and returns dst with ok true.
//
// Along the row, a sample's offset across and along a segment is
// affine in its index, so the samples within a radius of the segment
// form one interval. RowSpans computes it twice: for the samples
// certainly within r, with the radius squared narrowed, and for those
// possibly within r, with it widened. The margin is a relative 1e-6 of
// r² plus 1e-10 S², where S is the largest coordinate of the row and
// the line plus r. It is far wider than the rounding of a sample
// computed from the row's geometry in a few operations, of Within's
// own arithmetic and of its relative 1e-9 band, so for such a sample
// Within(sample, r) is true inside every [InLo, InHi) and false
// outside every [Lo, Hi).
//
// It returns dst unchanged and ok false when it cannot classify the
// row: n < 2, from == to, a coordinate beyond 1e100 or non-finite, or
// r outside Within's [1e-150, 1e150].
func (l *Line) RowSpans(dst []RowSpan, from, to geo.Point, n int, r float64) ([]RowSpan, bool) {
	scale := max(l.extent, math.Abs(from.X), math.Abs(from.Y), math.Abs(to.X), math.Abs(to.Y)) + r
	dx, dy := to.X-from.X, to.Y-from.Y
	if n < 2 || !(r >= 1e-150 && r <= 1e150) || !(scale <= 1e100) || dx == 0 && dy == 0 {
		return dst, false
	}
	slack := 1e-10 * scale * scale
	in2, near2 := r*r*(1-1e-6)-slack, r*r*(1+1e-6)+slack
	for i := 1; i < len(l.points); i++ {
		a, length := l.points[i-1], l.length[i-1]
		ex, ey := (l.points[i].X-a.X)/length, (l.points[i].Y-a.Y)/length
		// The row in the segment's frame: sample k is at along(t),
		// across(t) for t = k/(n-1), and the segment runs from (0, 0)
		// to (length, 0).
		qx, qy := from.X-a.X, from.Y-a.Y
		row := rowFrame{
			along0: qx*ex + qy*ey, along1: dx*ex + dy*ey,
			across0: qx*ey - qy*ex, across1: dx*ey - dy*ex,
			length: length,
		}
		span := RowSpan{}
		span.Lo, span.Hi = row.samples(near2, n)
		if span.Lo == span.Hi {
			continue
		}
		if in2 > 0 {
			span.InLo, span.InHi = row.samples(in2, n)
		}
		dst = append(dst, span)
	}
	return dst, true
}

// rowFrame is a row t ↦ (along0 + t·along1, across0 + t·across1) in
// the frame of a segment from (0, 0) to (length, 0).
type rowFrame struct {
	along0, along1, across0, across1, length float64
}

// samples returns the index range [from, to) of the samples k of n
// whose points, at t = k/(n-1), lie within sqrt(rho2) of the segment.
// The points within a radius of a segment form a convex capsule: a
// rectangle along the segment and a disc at each end, so the row's t
// within it are the hull of its intervals through the three.
func (f rowFrame) samples(rho2 float64, n int) (from, to int) {
	lo, hi := math.Inf(1), math.Inf(-1)
	d2 := f.along1*f.along1 + f.across1*f.across1
	for _, end := range [2]float64{0, f.length} {
		// |w + t·d|² <= rho2 for w the start relative to the end and d
		// the row's direction: its discriminant is |d|²rho2 - (w×d)².
		w := f.along0 - end
		dot, cross := w*f.along1+f.across0*f.across1, w*f.across1-f.across0*f.along1
		if disc := d2*rho2 - cross*cross; disc >= 0 {
			s := math.Sqrt(disc)
			lo, hi = min(lo, (-dot-s)/d2), max(hi, (-dot+s)/d2)
		}
	}
	rho := math.Sqrt(rho2)
	tlo, thi := clip(math.Inf(-1), math.Inf(1), f.along0, f.along1, 0, f.length)
	tlo, thi = clip(tlo, thi, f.across0, f.across1, -rho, rho)
	if tlo <= thi {
		lo, hi = min(lo, tlo), max(hi, thi)
	}
	last := float64(n - 1)
	lo, hi = max(math.Ceil(lo*last), 0), min(math.Floor(hi*last), last)
	if !(lo <= hi) {
		return 0, 0
	}
	return int(lo), int(hi) + 1
}

// clip narrows [tlo, thi] to the t for which x0 + t·x1 lies in [a, b].
func clip(tlo, thi, x0, x1, a, b float64) (float64, float64) {
	switch {
	case x1 > 0:
		return max(tlo, (a-x0)/x1), min(thi, (b-x0)/x1)
	case x1 < 0:
		return max(tlo, (b-x0)/x1), min(thi, (a-x0)/x1)
	case a <= x0 && x0 <= b:
		return tlo, thi
	}
	return 1, 0
}

// Camera is the road-side ZED camera pose on the local plane.
type Camera struct {
	// Position of the lens.
	Position geo.Point
	// Facing is the compass heading of the optical axis.
	Facing float64
	// FOV is the horizontal field of view in radians.
	FOV float64
	// MaxRange beyond which detection is impossible.
	MaxRange float64
}

// Sees reports whether p falls inside the camera frustum.
func (c Camera) Sees(p geo.Point) bool {
	v := p.Sub(c.Position)
	d := v.Norm()
	if d == 0 || d > c.MaxRange {
		return false
	}
	dh := math.Abs(geo.HeadingDiff(c.Facing, v.Heading()))
	return dh <= c.FOV/2
}

// DistanceTo returns the straight-line distance from the lens to p.
func (c Camera) DistanceTo(p geo.Point) float64 { return c.Position.DistanceTo(p) }

// Layout is a complete experimental floor layout.
type Layout struct {
	Line   *Line
	Camera Camera
	// ActionPointDistance is the threshold distance from the camera at
	// which braking must be initiated (1.52 m in the paper's run #4).
	ActionPointDistance float64
	// Frame anchors the layout geodetically.
	Frame *geo.Frame
}

// ActionPointArc returns the arc length along the line at which the
// vehicle first comes within the action-point distance of the camera,
// searching from the start. Returns false if the line never enters
// that range.
func (ly Layout) ActionPointArc() (float64, bool) {
	const step = 0.005
	for s := 0.0; s <= ly.Line.Length(); s += step {
		if ly.Camera.DistanceTo(ly.Line.PointAt(s)) <= ly.ActionPointDistance {
			return s, true
		}
	}
	return 0, false
}

// PaperLab reproduces the paper's Fig. 8 setup: a straight guide line
// several metres long heading towards the road-side camera, with the
// action point at 1.52 m from the lens.
func PaperLab() Layout {
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		panic(err) // static origin is always valid
	}
	// Line runs north along Y from y=0 to y=6; camera at the far end
	// looking back south at the approaching vehicle.
	line := MustLine([]geo.Point{{X: 0, Y: 0}, {X: 0, Y: 6}})
	cam := Camera{
		Position: geo.Point{X: 0, Y: 6.6},
		Facing:   math.Pi, // south
		FOV:      110 * math.Pi / 180,
		MaxRange: 12,
	}
	return Layout{
		Line:                line,
		Camera:              cam,
		ActionPointDistance: 1.52,
		Frame:               frame,
	}
}
