// Package world models the static laboratory environment beyond the
// floor line: walls and panels that block line of sight (the blind
// corner of the motivating use case) and attenuate radio propagation
// (the shadowing the paper's discussion lists as future work). The
// sensors package ray-casts against it and the radio medium consults
// it per link.
package world

import (
	"math"

	"itsbed/internal/geo"
)

// Material describes how a wall interacts with 5.9 GHz radio.
type Material int

// Wall materials with typical penetration losses.
const (
	MaterialDrywall Material = iota + 1
	MaterialBrick
	MaterialConcrete
	MaterialMetal
)

// PenetrationLossDB returns the one-pass attenuation of the material
// at 5.9 GHz.
func (m Material) PenetrationLossDB() float64 {
	switch m {
	case MaterialDrywall:
		return 4
	case MaterialBrick:
		return 10
	case MaterialConcrete:
		return 18
	case MaterialMetal:
		return 35
	default:
		return 0
	}
}

// String implements fmt.Stringer.
func (m Material) String() string {
	switch m {
	case MaterialDrywall:
		return "drywall"
	case MaterialBrick:
		return "brick"
	case MaterialConcrete:
		return "concrete"
	case MaterialMetal:
		return "metal"
	default:
		return "void"
	}
}

// Wall is one opaque segment on the local plane.
type Wall struct {
	Segment  geo.Segment
	Material Material
}

// Map is a set of walls. The zero value is an empty, fully open world.
type Map struct {
	walls []Wall
}

// NewMap copies the given walls into a world map.
func NewMap(walls []Wall) *Map {
	w := make([]Wall, len(walls))
	copy(w, walls)
	return &Map{walls: w}
}

// segmentsIntersect reports whether segments ab and cd properly
// intersect (shared endpoints count as intersection).
func segmentsIntersect(a, b, c, d geo.Point) bool {
	o := func(p, q, r geo.Point) float64 {
		return (q.X-p.X)*(r.Y-p.Y) - (q.Y-p.Y)*(r.X-p.X)
	}
	d1 := o(c, d, a)
	d2 := o(c, d, b)
	d3 := o(a, b, c)
	d4 := o(a, b, d)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	on := func(p, q, r geo.Point) bool {
		return math.Min(p.X, q.X)-1e-12 <= r.X && r.X <= math.Max(p.X, q.X)+1e-12 &&
			math.Min(p.Y, q.Y)-1e-12 <= r.Y && r.Y <= math.Max(p.Y, q.Y)+1e-12
	}
	switch {
	case d1 == 0 && on(c, d, a):
		return true
	case d2 == 0 && on(c, d, b):
		return true
	case d3 == 0 && on(a, b, c):
		return true
	case d4 == 0 && on(a, b, d):
		return true
	}
	return false
}

// rayHit computes the intersection parameter t∈[0,1] along a→b where
// the wall cd is crossed; ok is false when they do not intersect.
func rayHit(a, b, c, d geo.Point) (t float64, ok bool) {
	r := b.Sub(a)
	s := d.Sub(c)
	denom := r.Cross(s)
	if denom == 0 {
		return 0, false
	}
	ac := c.Sub(a)
	t = ac.Cross(s) / denom
	u := ac.Cross(r) / denom
	if t < 0 || t > 1 || u < 0 || u > 1 {
		return 0, false
	}
	return t, true
}

// ObstructionLossDB sums the penetration losses of every wall the
// path a→b crosses (the radio shadowing model).
func (m *Map) ObstructionLossDB(a, b geo.Point) float64 {
	if m == nil {
		return 0
	}
	var loss float64
	for _, w := range m.walls {
		if segmentsIntersect(a, b, w.Segment.A, w.Segment.B) {
			loss += w.Material.PenetrationLossDB()
		}
	}
	return loss
}

// Raycast traces from origin along direction (unit-normalised
// internally) up to maxRange and returns the distance to the first
// wall hit; ok is false when nothing is hit.
func (m *Map) Raycast(origin geo.Point, direction geo.Vector, maxRange float64) (dist float64, ok bool) {
	if m == nil || maxRange <= 0 {
		return 0, false
	}
	n := direction.Norm()
	if n == 0 {
		return 0, false
	}
	end := origin.Add(direction.Scale(maxRange / n))
	best := math.Inf(1)
	for _, w := range m.walls {
		if t, hit := rayHit(origin, end, w.Segment.A, w.Segment.B); hit && t < best {
			best = t
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best * maxRange, true
}
