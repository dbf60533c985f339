// Synthetic city: a Manhattan road grid scaled up from the laboratory
// floor, used by the city-scale density sweep. The geometry is purely
// deterministic — intersections sit on a regular lattice, vehicle
// routes are rectangular loops along the road grid, and RSU placement
// snaps an even coverage lattice onto intersections — so a campaign
// run is a pure function of its seed.
package world

import (
	"math"
	"math/rand"

	"itsbed/internal/geo"
	"itsbed/internal/track"
)

// CityConfig sizes the synthetic road grid.
type CityConfig struct {
	// BlocksX and BlocksY count city blocks along each axis; the road
	// lattice has BlocksX+1 × BlocksY+1 intersections. Zero selects 20.
	BlocksX, BlocksY int
	// BlockSize is the distance in metres between adjacent
	// intersections. Zero selects 150 m (a typical urban block).
	BlockSize float64
}

func (c *CityConfig) applyDefaults() {
	if c.BlocksX <= 0 {
		c.BlocksX = 20
	}
	if c.BlocksY <= 0 {
		c.BlocksY = 20
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 150
	}
}

// City is a Manhattan road-grid world: streets run along integer
// lattice lines, vehicles drive rectangular loops, RSUs sit on
// intersections.
type City struct {
	cfg CityConfig
}

// NewCity builds a city from the config (zero values take defaults).
func NewCity(cfg CityConfig) *City {
	cfg.applyDefaults()
	return &City{cfg: cfg}
}

// Intersection returns the position of lattice intersection (i, j),
// clamped to the grid.
func (c *City) Intersection(i, j int) geo.Point {
	i = clampInt(i, 0, c.cfg.BlocksX)
	j = clampInt(j, 0, c.cfg.BlocksY)
	return geo.Point{X: float64(i) * c.cfg.BlockSize, Y: float64(j) * c.cfg.BlockSize}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// RSUPositions places n road-side units on intersections so they
// cover the city evenly: an approximately square lattice of n points
// is laid over the city and each point snaps to the nearest
// intersection. Placement is deterministic.
func (c *City) RSUPositions(n int) []geo.Point {
	if n <= 0 {
		return nil
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	out := make([]geo.Point, 0, n)
	for r := 0; r < rows && len(out) < n; r++ {
		for col := 0; col < cols && len(out) < n; col++ {
			fx := (float64(col) + 0.5) / float64(cols)
			fy := (float64(r) + 0.5) / float64(rows)
			i := int(math.Round(fx * float64(c.cfg.BlocksX)))
			j := int(math.Round(fy * float64(c.cfg.BlocksY)))
			out = append(out, c.Intersection(i, j))
		}
	}
	return out
}

// RandomRoute draws a rectangular closed loop along the road grid:
// two distinct lattice columns and rows are chosen and the route runs
// the block perimeter between them. The returned line's last point
// equals its first, so Loop* accessors traverse it endlessly.
func (c *City) RandomRoute(rng *rand.Rand) *track.Line {
	i0 := rng.Intn(c.cfg.BlocksX)
	i1 := i0 + 1 + rng.Intn(c.cfg.BlocksX-i0)
	j0 := rng.Intn(c.cfg.BlocksY)
	j1 := j0 + 1 + rng.Intn(c.cfg.BlocksY-j0)
	return track.MustLine([]geo.Point{
		c.Intersection(i0, j0),
		c.Intersection(i1, j0),
		c.Intersection(i1, j1),
		c.Intersection(i0, j1),
		c.Intersection(i0, j0),
	})
}
