package experiments

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"itsbed/internal/geo"
	"itsbed/internal/its/facilities/ca"
	"itsbed/internal/world"
)

// fastCity is a small sweep that still exercises both the spatial grid
// and the DCC controller within test budgets.
func fastCity(workers int) CityOptions {
	return CityOptions{
		BaseSeed: 42,
		Stations: []int{30, 60},
		RSUs:     2,
		Duration: 1500 * time.Millisecond,
		Workers:  workers,
		City:     world.CityConfig{BlocksX: 3, BlocksY: 3, BlockSize: 80},
	}
}

// TestCityRecordersCrossWorkers runs a two-density sweep at two
// workers, twice, so a flight recorder that one worker's run put back
// into cityRecorders is taken by another goroutine's run. City
// recorders take no lock: under -race this pins that each has one
// writer at a time. The rows must equal a one-worker sweep's.
func TestCityRecordersCrossWorkers(t *testing.T) {
	want, err := CitySweep(fastCity(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := CitySweep(fastCity(2))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sweep %d at two workers:\n%+v\nwant (one worker)\n%+v", i, got, want)
		}
	}
}

func TestCitySweepShape(t *testing.T) {
	rows, err := CitySweep(fastCity(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	prevCBR := -1.0
	for _, r := range rows {
		if r.FramesSent == 0 || r.FramesDelivered == 0 {
			t.Fatalf("n=%d: no traffic (%+v)", r.Stations, r)
		}
		if !r.GridActive {
			t.Fatalf("n=%d: spatial grid inactive", r.Stations)
		}
		if r.PDR <= 0 || r.PDR > 1 {
			t.Fatalf("n=%d: PDR %v out of range", r.Stations, r.PDR)
		}
		if r.MeanCBR < 0 || r.MeanCBR > 1 {
			t.Fatalf("n=%d: CBR %v out of range", r.Stations, r.MeanCBR)
		}
		if r.DENMDeliveries == 0 {
			t.Fatalf("n=%d: no DENM reached any vehicle", r.Stations)
		}
		states := 0
		for _, c := range r.DCCStates {
			states += c
		}
		if states != r.Stations {
			t.Fatalf("n=%d: DCC histogram sums to %d", r.Stations, states)
		}
		// Density must not lower the measured channel load.
		if r.MeanCBR < prevCBR {
			t.Fatalf("CBR fell with density: %v after %v", r.MeanCBR, prevCBR)
		}
		prevCBR = r.MeanCBR
	}
}

// TestCityGridIdentity pins the tentpole invariant at campaign level:
// a grid-culled city run delivers frame-for-frame what the brute-force
// medium delivers. (Only FramesCulled — the bulk-accounting split of
// the same losses — may differ.) fastCity's 240 m city lies within
// the culling radius, so this runs an 8×8 city of 150 m blocks (1.2 km
// across), where the grid culls.
func TestCityGridIdentity(t *testing.T) {
	opt := fastCity(2)
	opt.City = world.CityConfig{BlocksX: 8, BlocksY: 8, BlockSize: 150}
	grid, err := CitySweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.DisableGrid = true
	brute, err := CitySweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range grid {
		g, b := grid[i], brute[i]
		if b.FramesCulled != 0 || b.GridActive {
			t.Fatalf("n=%d: brute run used the grid", b.Stations)
		}
		if g.FramesCulled == 0 || !g.GridActive {
			t.Fatalf("n=%d: grid run culled nothing (grid active: %v)", g.Stations, g.GridActive)
		}
		t.Logf("n=%d: grid culled %d receptions", g.Stations, g.FramesCulled)
		g.FramesCulled, g.GridActive = 0, false
		b.PDR, g.PDR = 0, 0 // PDR normalises by the culled count
		if !reflect.DeepEqual(g, b) {
			t.Fatalf("n=%d: grid and brute runs diverge:\ngrid  %+v\nbrute %+v", g.Stations, g, b)
		}
	}
}

// TestLoopMobilityMemoMatchesDirect asks a loopMobility for random
// instants, each often several times in a row and some revisited
// later, and checks every Position and VehicleState bit for bit against
// the route evaluated directly at that instant.
func TestLoopMobilityMemoMatchesDirect(t *testing.T) {
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13001))
	city := world.NewCity(world.CityConfig{BlocksX: 5, BlocksY: 5, BlockSize: 100})
	var now time.Duration
	for v := 0; v < 8; v++ {
		route := city.RandomRoute(rng)
		m := &loopMobility{
			line:   route,
			speed:  12 + rng.Float64()*8,
			offset: rng.Float64() * route.Length(),
			now:    func() time.Duration { return now },
			frame:  frame,
		}
		var seen []time.Duration
		for i := 0; i < 500; i++ {
			switch {
			case i > 0 && rng.Intn(3) == 0:
				// Ask again at the same instant.
			case len(seen) > 0 && rng.Intn(4) == 0:
				now = seen[rng.Intn(len(seen))]
			default:
				now = time.Duration(rng.Int63n(int64(120 * time.Second)))
			}
			seen = append(seen, now)
			s := m.offset + m.speed*now.Seconds()
			want := route.LoopPointAt(s)
			wantState := ca.VehicleState{
				Position:   frame.ToGeodetic(want),
				SpeedMS:    m.speed,
				HeadingRad: route.LoopHeadingAt(s),
				Length:     4.3,
				Width:      1.8,
			}
			// Alternate which of the two fills the memo first.
			var got geo.Point
			var state ca.VehicleState
			if i%2 == 0 {
				got, state = m.Position(), m.VehicleState()
			} else {
				state, got = m.VehicleState(), m.Position()
			}
			if !samePoint(got, want) {
				t.Fatalf("vehicle %d at %v: Position %v, direct %v", v, now, got, want)
			}
			if state != wantState {
				t.Fatalf("vehicle %d at %v: VehicleState %+v, direct %+v", v, now, state, wantState)
			}
		}
	}
}

func samePoint(a, b geo.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}
