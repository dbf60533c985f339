// Package sensors models the vehicle's onboard sensors from the
// paper's Fig. 5 hardware architecture that the line follower does not
// use but the onboard-only baseline does: the Hokuyo scanning LiDAR
// and the inertial measurement unit.
package sensors

import (
	"math"
	"math/rand"

	"itsbed/internal/geo"
	"itsbed/internal/world"
)

// LidarConfig describes a 2D scanning LiDAR (Hokuyo UST-10LX class).
type LidarConfig struct {
	// FOV is the angular field of view in radians, centred on the
	// vehicle heading.
	FOV float64
	// Beams is the number of rays per scan.
	Beams int
	// MaxRange in metres.
	MaxRange float64
	// RangeNoiseSigma is the per-return Gaussian range noise.
	RangeNoiseSigma float64
}

// DefaultHokuyo returns the testbed's LiDAR parameters.
func DefaultHokuyo() LidarConfig {
	return LidarConfig{
		FOV:             270 * math.Pi / 180,
		Beams:           1081,
		MaxRange:        10,
		RangeNoiseSigma: 0.01,
	}
}

// Return is one LiDAR beam return.
type Return struct {
	// Angle relative to the vehicle heading, radians (positive right).
	Angle float64
	// Range in metres; Hit is false beyond MaxRange.
	Range float64
	Hit   bool
}

// Target is an additional scannable object (another road user),
// approximated by a circle.
type Target struct {
	Position geo.Point
	Radius   float64
}

// Lidar performs scans against the world map and point targets.
type Lidar struct {
	cfg LidarConfig
	rng *rand.Rand
}

// NewLidar builds a LiDAR; rng may be nil for noiseless scans.
func NewLidar(cfg LidarConfig, rng *rand.Rand) *Lidar {
	if cfg.Beams <= 0 {
		cfg = DefaultHokuyo()
	}
	return &Lidar{cfg: cfg, rng: rng}
}

// rayCircle returns the distance along the unit ray (origin, dir) to
// the circle, or ok=false.
func rayCircle(origin geo.Point, dir geo.Vector, c Target) (float64, bool) {
	oc := origin.Sub(c.Position)
	b := oc.Dot(dir)
	disc := b*b - (oc.Dot(oc) - c.Radius*c.Radius)
	if disc < 0 {
		return 0, false
	}
	t := -b - math.Sqrt(disc)
	if t < 0 {
		return 0, false
	}
	return t, true
}

// Scan produces a full sweep from the given pose. Targets occlude and
// are occluded by walls naturally (nearest hit wins).
func (l *Lidar) Scan(wm *world.Map, pos geo.Point, heading float64, targets []Target) []Return {
	out := make([]Return, l.cfg.Beams)
	for i := range out {
		frac := 0.0
		if l.cfg.Beams > 1 {
			frac = float64(i)/float64(l.cfg.Beams-1) - 0.5
		}
		angle := frac * l.cfg.FOV
		dir := geo.HeadingVector(heading + angle)
		best := math.Inf(1)
		if d, ok := wm.Raycast(pos, dir, l.cfg.MaxRange); ok {
			best = d
		}
		for _, tg := range targets {
			if d, ok := rayCircle(pos, dir, tg); ok && d < best {
				best = d
			}
		}
		r := Return{Angle: angle}
		if best <= l.cfg.MaxRange {
			r.Hit = true
			r.Range = best
			if l.rng != nil && l.cfg.RangeNoiseSigma > 0 {
				r.Range += l.rng.NormFloat64() * l.cfg.RangeNoiseSigma
				if r.Range < 0 {
					r.Range = 0
				}
			}
		}
		out[i] = r
	}
	return out
}

// NearestAhead returns the closest return within ±halfSector of the
// vehicle heading; ok is false when nothing is hit there.
func NearestAhead(scan []Return, halfSector float64) (Return, bool) {
	best := Return{}
	found := false
	for _, r := range scan {
		if !r.Hit || math.Abs(r.Angle) > halfSector {
			continue
		}
		if !found || r.Range < best.Range {
			best = r
			found = true
		}
	}
	return best, found
}
