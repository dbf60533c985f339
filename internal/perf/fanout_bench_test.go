package perf

import (
	"fmt"
	"testing"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/flight"
	"itsbed/internal/geo"
	"itsbed/internal/its/btp"
	"itsbed/internal/its/geonet"
	"itsbed/internal/its/messages"
	"itsbed/internal/radio"
	"itsbed/internal/sim"
	"itsbed/internal/stack"
	"itsbed/internal/units"
)

// maxAllocsCAMFanout100 caps one CAM broadcast heard by 100 stacks.
// The GN packet, BTP header and CAM are decoded once per transmission
// and shared, and each receiver schedules its rx-latency event from a
// pooled delivery and refreshes its LDM entry in place, so what is
// left is per transmission (measured 6 allocs/op).
// One closure or heap entry per receiver adds 100.
const maxAllocsCAMFanout100 = 16

// camFanout is one sending station and n receiving stacks on an
// 802.11p medium, every receiver within range of the sender, plus the
// BTP-B CAM packet the sender broadcasts.
type camFanout struct {
	k         *sim.Kernel
	sender    *stack.Station
	receivers []*stack.Station
	pkt       []byte
	horizon   time.Duration
}

func newCAMFanout(tb testing.TB, n int) *camFanout {
	tb.Helper()
	k := sim.NewKernel(1)
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		tb.Fatal(err)
	}
	medium := radio.NewMedium(k, radio.MediumConfig{})
	station := func(i int) *stack.Station {
		p := geo.Point{X: float64(i%10) * 10, Y: float64(i/10) * 10}
		st, err := stack.New(k, medium, stack.Config{
			Name:        fmt.Sprintf("sta%03d", i),
			Role:        stack.RoleOBU,
			StationID:   units.StationID(1000 + i),
			StationType: units.StationTypePassengerCar,
			Frame:       frame,
			Mobility:    stack.StaticMobility{Point: p, Geo: frame.ToGeodetic(p)},
			NTP:         clock.PerfectNTP(),
		})
		if err != nil {
			tb.Fatal(err)
		}
		return st
	}
	f := &camFanout{k: k, sender: station(n)}
	for i := 0; i < n; i++ {
		f.receivers = append(f.receivers, station(i))
	}
	payload, err := sampleCAM().Encode()
	if err != nil {
		tb.Fatal(err)
	}
	if f.pkt, err = btp.Encode(btp.Header{Type: btp.TypeB, DestinationPort: btp.PortCAM}, payload); err != nil {
		tb.Fatal(err)
	}
	return f
}

// broadcast sends one CAM and runs the kernel until every receiver
// has handed it to its CA receiver.
func (f *camFanout) broadcast(tb testing.TB) {
	if err := f.sender.Router.SendSHB(geonet.NextBTPB, 2, f.pkt); err != nil {
		tb.Fatal(err)
	}
	f.horizon += 50 * time.Millisecond
	f.k.Run(f.horizon)
}

// TestAllocGuardCAMFanout pins the shared decode: one CAM broadcast to
// 100 stacks, run to completion, reaches every receiver and stays
// under the per-transmission ceiling.
func TestAllocGuardCAMFanout(t *testing.T) {
	f := newCAMFanout(t, 100)
	got := make([]int, len(f.receivers))
	for i, r := range f.receivers {
		i := i
		r.OnCAM = func(*messages.CAM) { got[i]++ }
	}
	f.broadcast(t) // first delivery creates each receiver's LDM entry
	const runs = 50
	guardAllocs(t, "CAM fan-out to 100 stacks", runs, maxAllocsCAMFanout100, func() { f.broadcast(t) })
	// testing.AllocsPerRun calls the function once more to warm up.
	const want = 1 + 1 + runs
	for i, r := range f.receivers {
		if got[i] != want {
			t.Fatalf("%s accepted %d CAMs, want %d", r.Name(), got[i], want)
		}
	}
}

// BenchmarkCAMFanout100 measures one CAM broadcast heard by 100
// stacks: medium reception, then GN, BTP and CAM decode and LDM
// ingestion at every receiver.
func BenchmarkCAMFanout100(b *testing.B) {
	f := newCAMFanout(b, 100)
	f.broadcast(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.broadcast(b)
	}
}

// BenchmarkFlightRecordFleet1k measures one flight-recorder append at
// city-1000 scale: 1004 station rings at the default capacity,
// appended in the medium's receiver-id order, so each append lands in
// a ring the other 1003 appends have pushed out of cache.
func BenchmarkFlightRecordFleet1k(b *testing.B) {
	rec := flight.NewRecorder(0)
	hooks := make([]flight.Hook, 1004)
	for i := range hooks {
		hooks[i] = rec.Hook(fmt.Sprintf("sta%04d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hooks[i%len(hooks)].RecordFrom(time.Duration(i), flight.RadioRx, flight.RxOK, hooks[0], 180, 0)
	}
}
