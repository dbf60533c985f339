package radio

import (
	"fmt"
	"math"
	"testing"
	"time"

	"itsbed/internal/geo"
	"itsbed/internal/sim"
)

func TestGridInsertMoveNeighbors(t *testing.T) {
	g := NewGrid(10)
	g.Insert(0, geo.Point{X: 5, Y: 5})
	g.Insert(1, geo.Point{X: 95, Y: 5})
	g.Insert(2, geo.Point{X: 5, Y: 95})
	if g.Len() != 3 {
		t.Fatalf("len %d, want 3", g.Len())
	}
	collect := func(p geo.Point, r float64) map[int]bool {
		got := map[int]bool{}
		g.Neighbors(p, r, func(id int) { got[id] = true })
		return got
	}
	got := collect(geo.Point{X: 5, Y: 5}, 5)
	if !got[0] || got[1] || got[2] {
		t.Fatalf("near-origin query got %v", got)
	}
	// Move member 1 next to the origin and re-query.
	g.Move(1, geo.Point{X: 6, Y: 6})
	got = collect(geo.Point{X: 5, Y: 5}, 5)
	if !got[0] || !got[1] || got[2] {
		t.Fatalf("post-move query got %v", got)
	}
	if p, ok := g.pos[1], g.present[1]; !ok || p.X != 6 {
		t.Fatalf("binned position %v %v", p, ok)
	}
	// Moving an unknown id is a no-op.
	g.Move(42, geo.Point{})
	if g.Len() != 3 {
		t.Fatalf("len after no-op move %d", g.Len())
	}
	// Re-inserting an existing id moves it.
	g.Insert(2, geo.Point{X: 7, Y: 7})
	got = collect(geo.Point{X: 5, Y: 5}, 5)
	if !got[2] || g.Len() != 3 {
		t.Fatalf("re-insert: got %v len %d", got, g.Len())
	}
}

func TestGridNeighborsSupersetOfRadius(t *testing.T) {
	// A member binned exactly at distance r must be visited; members in
	// intersecting cells beyond r may be (superset, never subset).
	g := NewGrid(10)
	g.Insert(0, geo.Point{X: 30, Y: 0})
	found := false
	g.Neighbors(geo.Point{}, 30, func(id int) { found = found || id == 0 })
	if !found {
		t.Fatal("member at exactly r not visited")
	}
}

func TestGridDegenerateInputs(t *testing.T) {
	g := NewGrid(10)
	g.Insert(0, geo.Point{X: math.NaN(), Y: 0})
	g.Insert(1, geo.Point{X: math.Inf(1), Y: math.Inf(-1)})
	g.Insert(2, geo.Point{X: 1, Y: 1})
	if g.Len() != 3 {
		t.Fatalf("len %d", g.Len())
	}
	// NaN query center scans everything.
	n := 0
	g.Neighbors(geo.Point{X: math.NaN()}, 5, func(int) { n++ })
	if n != 3 {
		t.Fatalf("NaN query visited %d, want 3", n)
	}
	// Infinite radius scans everything.
	n = 0
	g.Neighbors(geo.Point{}, math.Inf(1), func(int) { n++ })
	if n != 3 {
		t.Fatalf("inf-radius query visited %d, want 3", n)
	}
	// Negative and NaN radii visit nothing.
	g.Neighbors(geo.Point{}, -1, func(int) { t.Fatal("negative radius visited") })
	g.Neighbors(geo.Point{}, math.NaN(), func(int) { t.Fatal("NaN radius visited") })
	// Non-positive cell sizes clamp.
	if NewGrid(0).cellSize != 1 || NewGrid(math.Inf(1)).cellSize != 1 {
		t.Fatal("cell size not clamped")
	}
}

func TestClampCell(t *testing.T) {
	if clampCell(math.NaN()) != 0 {
		t.Fatal("NaN cell")
	}
	if clampCell(1e18) != math.MaxInt32 || clampCell(-1e18) != math.MinInt32 {
		t.Fatal("saturation")
	}
	if clampCell(-0.5) != -1 || clampCell(0.5) != 0 {
		t.Fatal("floor binning")
	}
}

// movingFleet attaches n interfaces on drifting positions and beacons
// from each; used to compare the grid-culled and brute-force paths.
func movingFleet(t *testing.T, disableGrid bool) (*sim.Kernel, *Medium, []*Interface) {
	t.Helper()
	k := sim.NewKernel(7)
	m := NewMedium(k, MediumConfig{
		PathLoss:    PathLossModel{Exponent: 3.5, ReferenceLossDB: 47.9, ShadowingSigmaDB: 3},
		DisableGrid: disableGrid,
	})
	const n = 48
	ifaces := make([]*Interface, n)
	for i := 0; i < n; i++ {
		i := i
		base := geo.Point{X: float64(i%8) * 150, Y: float64(i/8) * 150}
		vel := geo.Point{X: float64(i%3-1) * 15, Y: float64(i%5-2) * 10}
		pos := func() geo.Point {
			s := k.Now().Seconds()
			return geo.Point{X: base.X + vel.X*s, Y: base.Y + vel.Y*s}
		}
		iface, err := m.Attach(InterfaceConfig{Name: fmt.Sprintf("sta%02d", i)}, pos)
		if err != nil {
			t.Fatal(err)
		}
		ifaces[i] = iface
		frame := make([]byte, 180)
		k.Every(time.Duration(i)*977*time.Microsecond, 40*time.Millisecond, func() {
			if err := iface.SendBroadcast(frame); err != nil {
				t.Errorf("send: %v", err)
			}
		})
	}
	return k, m, ifaces
}

// TestGridBruteForceIdentical is the tentpole invariant: with the
// spatial culling grid enabled, every counter — global and per
// interface — is frame-for-frame identical to the brute-force scan.
func TestGridBruteForceIdentical(t *testing.T) {
	kg, mg, ig := movingFleet(t, false)
	kb, mb, ib := movingFleet(t, true)
	kg.Run(2 * time.Second)
	kb.Run(2 * time.Second)
	if !mg.GridActive() {
		t.Fatal("grid not active on culled medium")
	}
	if mb.GridActive() {
		t.Fatal("grid active despite DisableGrid")
	}
	if mg.FramesCulled == 0 {
		t.Fatal("grid culled nothing; fleet too dense for the test to bite")
	}
	if mg.FramesSent != mb.FramesSent || mg.FramesDelivered != mb.FramesDelivered ||
		mg.FramesLost != mb.FramesLost {
		t.Fatalf("medium counters diverge: grid sent/del/lost %d/%d/%d, brute %d/%d/%d",
			mg.FramesSent, mg.FramesDelivered, mg.FramesLost,
			mb.FramesSent, mb.FramesDelivered, mb.FramesLost)
	}
	if mb.FramesCulled != 0 {
		t.Fatalf("brute path culled %d", mb.FramesCulled)
	}
	for i := range ig {
		a, b := ig[i], ib[i]
		if a.FramesReceived != b.FramesReceived || a.FramesCorrupted != b.FramesCorrupted ||
			a.FramesTransmitted != b.FramesTransmitted {
			t.Fatalf("iface %d diverges: grid rx/corrupt/tx %d/%d/%d, brute %d/%d/%d",
				i, a.FramesReceived, a.FramesCorrupted, a.FramesTransmitted,
				b.FramesReceived, b.FramesCorrupted, b.FramesTransmitted)
		}
		if a.ChannelBusyTime() != b.ChannelBusyTime() {
			t.Fatalf("iface %d busy time diverges: %v vs %v", i, a.ChannelBusyTime(), b.ChannelBusyTime())
		}
	}
}

func TestCullRangeUsesStricterThreshold(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMedium(k, MediumConfig{
		PathLoss: PathLossModel{Exponent: 2, ReferenceLossDB: 47.9},
	})
	if _, err := m.Attach(InterfaceConfig{Name: "a"}, func() geo.Point { return geo.Point{} }); err != nil {
		t.Fatal(err)
	}
	// Carrier sense (-85 dBm by default) is weaker than sensitivity
	// (-92): the culling range must cover the sensitivity contour.
	r := m.CullRangeM()
	sens := math.Pow(10, (DefaultTxPowerDBm-47.9-DefaultSensitivityDBm)/20)
	if r < sens*(1-1e-12) {
		t.Fatalf("cull range %.1f m below sensitivity range %.1f m", r, sens)
	}
}
