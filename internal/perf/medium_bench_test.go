package perf

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"itsbed/internal/faults"
	"itsbed/internal/geo"
	"itsbed/internal/radio"
	"itsbed/internal/sim"
	"itsbed/internal/trace"
)

// fleet1k attaches n interfaces on a square lattice under a tight
// urban path-loss model (no shadowing, ~83 m communication range at
// 75 m spacing: each station decodes its four lattice neighbours), so
// the spatial grid culls the overwhelming majority of the n−1
// receivers per frame.
func fleet1k(tb testing.TB, n int, disableGrid bool) (*sim.Kernel, *radio.Medium, []*radio.Interface) {
	k := sim.NewKernel(1)
	m, ifaces := lattice(tb, k, n, radio.MediumConfig{
		PathLoss:    radio.PathLossModel{Exponent: 3.5, ReferenceLossDB: 47.9},
		DisableGrid: disableGrid,
	})
	return k, m, ifaces
}

// lattice attaches n interfaces 75 m apart on a square lattice.
func lattice(tb testing.TB, k *sim.Kernel, n int, cfg radio.MediumConfig) (*radio.Medium, []*radio.Interface) {
	tb.Helper()
	m := radio.NewMedium(k, cfg)
	side := 1
	for side*side < n {
		side++
	}
	ifaces := make([]*radio.Interface, n)
	for i := 0; i < n; i++ {
		p := geo.Point{X: float64(i%side) * 75, Y: float64(i/side) * 75}
		iface, err := m.Attach(radio.InterfaceConfig{Name: fmt.Sprintf("sta%04d", i)}, func() geo.Point { return p })
		if err != nil {
			tb.Fatal(err)
		}
		ifaces[i] = iface
	}
	return m, ifaces
}

// benchMedium measures end-to-end frame completion cost: each op puts
// one 180-byte broadcast on the air from a rotating transmitter and
// advances the simulation past its airtime, so the per-op time is
// dominated by reception evaluation across the fleet.
func benchMedium(b *testing.B, disableGrid bool) {
	k, _, ifaces := fleet1k(b, 1000, disableGrid)
	frame := make([]byte, 180)
	horizon := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ifaces[i%len(ifaces)].SendBroadcast(frame); err != nil {
			b.Fatal(err)
		}
		horizon += 5 * time.Millisecond
		k.Run(horizon)
	}
}

// BenchmarkMediumGrid1k and BenchmarkMediumBrute1k pin the tentpole
// speedup: grid-culled reception over a 1000-station fleet must be
// several times cheaper than the brute-force O(N²) scan while
// delivering frame-for-frame identical outcomes (pinned by
// TestGridBruteIdentical1k).
func BenchmarkMediumGrid1k(b *testing.B)  { benchMedium(b, false) }
func BenchmarkMediumBrute1k(b *testing.B) { benchMedium(b, true) }

// TestGridBruteIdentical1k replays the benchmark workload on both
// reception paths and requires identical delivery counters — the
// correctness half of the speedup claim.
func TestGridBruteIdentical1k(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-station fleet")
	}
	type outcome struct{ sent, delivered, lost uint64 }
	run := func(disableGrid bool) outcome {
		k, m, ifaces := fleet1k(t, 1000, disableGrid)
		frame := make([]byte, 180)
		horizon := time.Duration(0)
		for i := 0; i < 2000; i++ {
			if err := ifaces[i%len(ifaces)].SendBroadcast(frame); err != nil {
				t.Fatal(err)
			}
			horizon += 5 * time.Millisecond
			k.Run(horizon)
		}
		return outcome{m.FramesSent, m.FramesDelivered, m.FramesLost}
	}
	grid, brute := run(false), run(true)
	if grid != brute {
		t.Fatalf("grid %+v != brute %+v", grid, brute)
	}
	if grid.delivered == 0 {
		t.Fatal("benchmark fleet delivers nothing; spacing too wide")
	}
}

// contendedSenders is how many stations start a frame together in one
// contended op, and contendedStride the index distance between them:
// 125 lattice slots is about 375 m, beyond carrier-sense range even
// with maximal shadowing but well within decoding range of the
// receivers between them, so the frames overlap and interfere.
const (
	contendedSenders = 8
	contendedStride  = 125
)

// contendedFleet is 1000 stations under the city's path loss (exponent
// 2.75, 2 dB shadowing), where each receiver's SINR sums several
// overlapping transmissions. faults, when non-nil, is built on the
// fleet's kernel and screens every reception (which turns the grid
// off).
func contendedFleet(tb testing.TB, disableGrid bool, plan *faults.Plan) (*sim.Kernel, *radio.Medium, []*radio.Interface) {
	k := sim.NewKernel(1)
	cfg := radio.MediumConfig{
		PathLoss:    radio.PathLossModel{Exponent: 2.75, ReferenceLossDB: 47.9, ShadowingSigmaDB: 2},
		DisableGrid: disableGrid,
	}
	if plan != nil {
		cfg.Faults = faults.NewInjector(k, *plan, trace.Sink{})
	}
	m, ifaces := lattice(tb, k, 1000, cfg)
	return k, m, ifaces
}

// contendedOp has contendedSenders stations, rotating with op, queue
// one frame each at the same instant, and runs the medium 5 ms on.
func contendedOp(tb testing.TB, k *sim.Kernel, ifaces []*radio.Interface, frame []byte, op int) {
	for j := 0; j < contendedSenders; j++ {
		if err := ifaces[(op+j*contendedStride)%len(ifaces)].SendBroadcast(frame); err != nil {
			tb.Fatal(err)
		}
	}
	k.Run(k.Now() + 5*time.Millisecond)
}

// BenchmarkMediumContended1k measures frame completion where the SINR
// stage does real work: several frames overlap per completion, so every
// decodable receiver sums interference from the other transmitters.
func BenchmarkMediumContended1k(b *testing.B) {
	k, _, ifaces := contendedFleet(b, false, nil)
	frame := make([]byte, 180)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		contendedOp(b, k, ifaces, frame, i)
	}
}

// contendedOutcome is everything a contended run decides: the medium's
// counters and every interface's receptions, SINR losses and sensed
// busy time.
type contendedOutcome struct {
	sent, delivered, lost uint64
	received, corrupted   []uint64
	busy                  []time.Duration
}

func runContended(t *testing.T, disableGrid bool, plan *faults.Plan) contendedOutcome {
	k, m, ifaces := contendedFleet(t, disableGrid, plan)
	frame := make([]byte, 180)
	for op := 0; op < 250; op++ {
		contendedOp(t, k, ifaces, frame, op)
	}
	o := contendedOutcome{sent: m.FramesSent, delivered: m.FramesDelivered, lost: m.FramesLost}
	for _, iface := range ifaces {
		o.received = append(o.received, iface.FramesReceived)
		o.corrupted = append(o.corrupted, iface.FramesCorrupted)
		o.busy = append(o.busy, iface.ChannelBusyTime())
	}
	return o
}

// digest folds an outcome into one number, to pin it compactly.
func (o contendedOutcome) digest() uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, o.sent, o.delivered, o.lost, o.received, o.corrupted, o.busy)
	return h.Sum64()
}

// TestGridBruteIdenticalContended1k is TestGridBruteIdentical1k with
// the interference sum in play: shadowing on and eight overlapping
// transmitters per op. The grid and brute-force paths must decide every
// reception alike, and both must reproduce the outcome pinned from
// the exact decision (u against the success probability of the full
// per-term sum for every receiver, capture_test.go's reference).
// The noise-burst case runs the brute-force path with a raised noise
// floor (a fault model turns the grid off).
func TestGridBruteIdenticalContended1k(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-station fleet")
	}
	bursts := &faults.Plan{Noise: []faults.NoiseBurst{
		{Window: faults.Window{Start: faults.D(100 * time.Millisecond), End: faults.D(400 * time.Millisecond)}, ExtraDB: 6},
		{Window: faults.Window{Start: faults.D(700 * time.Millisecond), End: faults.D(900 * time.Millisecond)}, ExtraDB: 15},
	}}
	for _, tc := range []struct {
		name   string
		plan   *faults.Plan
		digest uint64
	}{
		{"clear", nil, 0x9665d83f687d3077},
		{"noise-bursts", bursts, 0x41b64873977e65a9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			grid, brute := runContended(t, false, tc.plan), runContended(t, true, tc.plan)
			if !reflect.DeepEqual(grid, brute) {
				t.Fatalf("grid %d/%d/%d != brute %d/%d/%d (sent/delivered/lost), or per-interface counters differ",
					grid.sent, grid.delivered, grid.lost, brute.sent, brute.delivered, brute.lost)
			}
			var corrupted uint64
			for _, c := range grid.corrupted {
				corrupted += c
			}
			t.Logf("sent %d delivered %d lost %d (sinr %d) digest %#x", grid.sent, grid.delivered, grid.lost, corrupted, grid.digest())
			if corrupted == 0 || grid.delivered == 0 {
				t.Fatal("contended fleet loses nothing to SINR or delivers nothing")
			}
			if d := grid.digest(); d != tc.digest {
				t.Fatalf("outcome digest %#x, want %#x (the exact decision's)", d, tc.digest)
			}
		})
	}
}
