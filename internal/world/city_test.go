package world

import (
	"math"
	"math/rand"
	"testing"

	"itsbed/internal/geo"
)

func TestCityDefaultsAndExtent(t *testing.T) {
	c := NewCity(CityConfig{})
	if cfg := c.Config(); cfg.BlocksX != 20 || cfg.BlocksY != 20 || cfg.BlockSize != 150 {
		t.Fatalf("defaults %+v", cfg)
	}
	if c.Width() != 3000 || c.Height() != 3000 {
		t.Fatalf("extent %v×%v", c.Width(), c.Height())
	}
}

func TestCityIntersectionClamps(t *testing.T) {
	c := NewCity(CityConfig{BlocksX: 4, BlocksY: 3, BlockSize: 100})
	if p := c.Intersection(2, 1); p.X != 200 || p.Y != 100 {
		t.Fatalf("interior intersection %v", p)
	}
	if p := c.Intersection(-5, 99); p.X != 0 || p.Y != 300 {
		t.Fatalf("clamped intersection %v", p)
	}
}

func TestRSUPositionsCoverEvenly(t *testing.T) {
	c := NewCity(CityConfig{BlocksX: 10, BlocksY: 10, BlockSize: 100})
	for _, n := range []int{1, 2, 4, 5, 9, 16} {
		got := c.RSUPositions(n)
		if len(got) != n {
			t.Fatalf("n=%d: %d positions", n, len(got))
		}
		for _, p := range got {
			// Every RSU sits on a lattice intersection inside the city.
			if math.Mod(p.X, 100) != 0 || math.Mod(p.Y, 100) != 0 {
				t.Fatalf("n=%d: RSU off-lattice at %v", n, p)
			}
			if p.X < 0 || p.X > c.Width() || p.Y < 0 || p.Y > c.Height() {
				t.Fatalf("n=%d: RSU outside city at %v", n, p)
			}
		}
	}
	if got := c.RSUPositions(0); got != nil {
		t.Fatalf("n=0 returned %v", got)
	}
	// Placement is deterministic: same input, same lattice.
	a, b := c.RSUPositions(7), c.RSUPositions(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RSU placement not deterministic")
		}
	}
	// Four RSUs land on four distinct intersections in a 10×10 grid.
	seen := map[geo.Point]bool{}
	for _, p := range c.RSUPositions(4) {
		seen[p] = true
	}
	if len(seen) != 4 {
		t.Fatalf("4 RSUs collapsed onto %d intersections", len(seen))
	}
}

func TestRandomRouteIsClosedGridLoop(t *testing.T) {
	c := NewCity(CityConfig{BlocksX: 6, BlocksY: 4, BlockSize: 120})
	rng := rand.New(rand.NewSource(11))
	for k := 0; k < 200; k++ {
		route := c.RandomRoute(rng)
		if route.Length() <= 0 {
			t.Fatal("degenerate route")
		}
		first := route.PointAt(0)
		last := route.PointAt(route.Length())
		if first != last {
			t.Fatalf("route not closed: %v → %v", first, last)
		}
		// The perimeter of an i×j block rectangle is a multiple of
		// 2·BlockSize and at least one full block.
		per := route.Length() / 120
		if per < 4 || math.Abs(per-math.Round(per)) > 1e-9 {
			t.Fatalf("perimeter %v blocks", per)
		}
		// All corners stay on the lattice inside the city.
		for _, s := range []float64{0, route.Length() / 4, route.Length() / 2} {
			p := route.PointAt(s)
			if p.X < 0 || p.X > c.Width() || p.Y < 0 || p.Y > c.Height() {
				t.Fatalf("route leaves city at %v", p)
			}
		}
	}
	// Same seed, same route sequence.
	r1 := c.RandomRoute(rand.New(rand.NewSource(5)))
	r2 := c.RandomRoute(rand.New(rand.NewSource(5)))
	if r1.Length() != r2.Length() || r1.PointAt(0) != r2.PointAt(0) {
		t.Fatal("route draw not deterministic")
	}
}

// Config returns the resolved configuration.
func (c *City) Config() CityConfig { return c.cfg }

// Width is the east–west extent of the road grid in metres.
func (c *City) Width() float64 { return float64(c.cfg.BlocksX) * c.cfg.BlockSize }

// Height is the north–south extent of the road grid in metres.
func (c *City) Height() float64 { return float64(c.cfg.BlocksY) * c.cfg.BlockSize }
