// Package geo provides the geodetic and planar geometry primitives used
// throughout the testbed: WGS84 coordinates (what ETSI ITS messages
// carry), a local east-north-up tangent plane (what the laboratory
// floor is), and conversions between the two anchored at a reference
// origin. Distances on the laboratory scale (metres) are small enough
// that an equirectangular tangent-plane approximation is exact to well
// below a millimetre.
package geo

import (
	"fmt"
	"math"
)

// Earth radii for the WGS84 ellipsoid.
const (
	wgs84A = 6378137.0         // semi-major axis, metres
	wgs84F = 1 / 298.257223563 // flattening
)

// LatLon is a WGS84 geodetic position in degrees.
type LatLon struct {
	Lat float64 // degrees, north positive
	Lon float64 // degrees, east positive
}

// String implements fmt.Stringer.
func (p LatLon) String() string {
	return fmt.Sprintf("(%.7f°, %.7f°)", p.Lat, p.Lon)
}

// Valid reports whether the coordinates are in range.
func (p LatLon) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// Point is a position on the local tangent plane, in metres.
// X is east, Y is north.
type Point struct {
	X, Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3fm, %.3fm)", p.X, p.Y) }

// Add returns p translated by v.
func (p Point) Add(v Vector) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vector { return Vector{p.X - q.X, p.Y - q.Y} }

// DistanceTo returns the Euclidean distance between p and q in metres.
func (p Point) DistanceTo(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// DistanceLess reports p.DistanceTo(q) < r, and DistanceAtMost
// reports p.DistanceTo(q) <= r, each with exactly the math.Hypot
// comparison's result but decided from squared distances. Only a
// distance within a relative 1e-9 of r, far wider than the rounding of
// either form, or a non-finite input falls back to math.Hypot.
func (p Point) DistanceLess(q Point, r float64) bool {
	if c := p.distanceVs(q, r); c != 0 {
		return c < 0
	}
	return p.DistanceTo(q) < r
}

// DistanceAtMost reports p.DistanceTo(q) <= r, decided as
// DistanceLess decides.
func (p Point) DistanceAtMost(q Point, r float64) bool {
	if c := p.distanceVs(q, r); c != 0 {
		return c < 0
	}
	return p.DistanceTo(q) <= r
}

// distanceVs returns -1 when |p−q| is certainly below r, +1 when it is
// certainly above, and 0 when only math.Hypot can tell.
func (p Point) distanceVs(q Point, r float64) int {
	if !(r >= 1e-150 && r <= 1e150) {
		// Outside this range r² under- or overflows, or r is negative
		// or NaN.
		return 0
	}
	dx, dy := p.X-q.X, p.Y-q.Y
	d2, r2 := dx*dx+dy*dy, r*r
	if d2 < r2*(1-1e-9) {
		return -1
	}
	if d2 > r2*(1+1e-9) {
		// An overflowed d2 is above too: r is at most 1e150.
		return 1
	}
	return 0
}

// Vector is a displacement on the local plane, in metres.
type Vector struct {
	X, Y float64
}

// Norm returns the Euclidean length of v.
func (v Vector) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Scale returns v scaled by s.
func (v Vector) Scale(s float64) Vector { return Vector{v.X * s, v.Y * s} }

// Dot returns the dot product of v and w.
func (v Vector) Dot(w Vector) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the z component of the cross product v×w.
func (v Vector) Cross(w Vector) float64 { return v.X*w.Y - v.Y*w.X }

// Heading returns the compass heading of v in radians: 0 = north,
// increasing clockwise (east = π/2), normalised to [0, 2π).
func (v Vector) Heading() float64 {
	h := math.Atan2(v.X, v.Y)
	if h < 0 {
		h += 2 * math.Pi
	}
	return h
}

// HeadingVector returns the unit vector pointing along compass heading
// h (radians, 0 = north, clockwise positive).
func HeadingVector(h float64) Vector {
	return Vector{X: math.Sin(h), Y: math.Cos(h)}
}

// NormalizeHeading wraps h into [0, 2π).
func NormalizeHeading(h float64) float64 {
	h = math.Mod(h, 2*math.Pi)
	if h < 0 {
		h += 2 * math.Pi
	}
	return h
}

// HeadingDiff returns the signed smallest rotation from a to b, in
// radians within (-π, π].
func HeadingDiff(a, b float64) float64 {
	d := math.Mod(b-a, 2*math.Pi)
	if d > math.Pi {
		d -= 2 * math.Pi
	}
	if d <= -math.Pi {
		d += 2 * math.Pi
	}
	return d
}

// Frame converts between WGS84 and a local tangent plane anchored at
// Origin. The zero value is unusable; construct with NewFrame.
type Frame struct {
	origin LatLon
	// metres per degree at the origin latitude
	mPerDegLat float64
	mPerDegLon float64
}

// NewFrame anchors a local ENU frame at origin.
func NewFrame(origin LatLon) (*Frame, error) {
	f, ok := frameAt(origin)
	if !ok {
		return nil, fmt.Errorf("geo: invalid frame origin %v", origin)
	}
	return &f, nil
}

// LocalDistance returns the distance from origin to p in the local
// plane anchored at origin: NewFrame(origin).ToLocal(p).DistanceTo(
// Point{}), bit for bit, without a heap frame. ok is false when origin
// is invalid.
func LocalDistance(origin, p LatLon) (d float64, ok bool) {
	f, ok := frameAt(origin)
	if !ok {
		return 0, false
	}
	return f.ToLocal(p).DistanceTo(Point{}), true
}

// frameAt builds the frame anchored at origin; ok is false when origin
// is invalid.
func frameAt(origin LatLon) (f Frame, ok bool) {
	if !origin.Valid() {
		return Frame{}, false
	}
	lat := origin.Lat * math.Pi / 180
	// Radii of curvature on the WGS84 ellipsoid.
	e2 := wgs84F * (2 - wgs84F)
	s2 := math.Sin(lat) * math.Sin(lat)
	den := math.Sqrt(1 - e2*s2)
	m := wgs84A * (1 - e2) / (den * den * den) // meridional radius
	n := wgs84A / den                          // prime vertical radius
	return Frame{
		origin:     origin,
		mPerDegLat: m * math.Pi / 180,
		mPerDegLon: n * math.Cos(lat) * math.Pi / 180,
	}, true
}

// Origin returns the geodetic anchor of the frame.
func (f *Frame) Origin() LatLon { return f.origin }

// ToLocal converts a geodetic position to local plane metres.
func (f *Frame) ToLocal(p LatLon) Point {
	return Point{
		X: (p.Lon - f.origin.Lon) * f.mPerDegLon,
		Y: (p.Lat - f.origin.Lat) * f.mPerDegLat,
	}
}

// ToGeodetic converts a local plane point back to WGS84.
func (f *Frame) ToGeodetic(p Point) LatLon {
	return LatLon{
		Lat: f.origin.Lat + p.Y/f.mPerDegLat,
		Lon: f.origin.Lon + p.X/f.mPerDegLon,
	}
}

// CISTERLab is the approximate location of the CISTER laboratory in
// Porto, Portugal, used as the default frame origin for experiments.
var CISTERLab = LatLon{Lat: 41.1780, Lon: -8.6080}

// Segment is a directed line segment on the local plane.
type Segment struct {
	A, B Point
}

// PointAt returns the point a fraction t∈[0,1] along the segment.
func (s Segment) PointAt(t float64) Point {
	return Point{
		X: s.A.X + t*(s.B.X-s.A.X),
		Y: s.A.Y + t*(s.B.Y-s.A.Y),
	}
}

// Heading returns the compass heading of the segment direction A→B.
func (s Segment) Heading() float64 { return s.B.Sub(s.A).Heading() }
