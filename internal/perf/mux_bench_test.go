package perf

import (
	"context"
	"testing"

	"itsbed/internal/geo"
	"itsbed/internal/openc2x"
	"itsbed/internal/units"
)

// maxAllocsMuxDENMFanout500 caps one DENM trigger on a 500-station
// MuxServer whose 499 receiving mailboxes are full: each delivery
// evicts the oldest DENM and retires its trace. Measured 2017
// allocs/op: per delivery the two new spans and two attribute slices
// (the new root's action_id, the evicted span's drop reason); the
// retired records reuse the /trace ring's storage. The full-scan
// tracer, which copied each retired trace into fresh records and
// formatted per delivery, measured 7509.
const maxAllocsMuxDENMFanout500 = 3_000

// muxFanout is a MuxServer hosting n stations (IDs 1..n) with every
// mailbox at its cap. It does not serve HTTP: triggers go straight to
// the sender's node and fan out over the daemon's internal loopback.
type muxFanout struct {
	srv    *openc2x.MuxServer
	sender *openc2x.RealNode
	req    openc2x.TriggerRequest
}

func newMuxFanout(tb testing.TB, n int) *muxFanout {
	tb.Helper()
	srv, err := openc2x.NewMuxServer(openc2x.MuxConfig{Addr: "127.0.0.1:0", MaxStations: n})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Shutdown(context.Background()) })
	for id := 1; id <= n; id++ {
		if _, err := srv.Register(uint32(id), units.StationTypePassengerCar, geo.CISTERLab); err != nil {
			tb.Fatal(err)
		}
	}
	f := &muxFanout{req: openc2x.TriggerRequest{
		CauseCode: 97, SubCauseCode: 2, Quality: 3,
		Latitude: geo.CISTERLab.Lat, Longitude: geo.CISTERLab.Lon,
	}}
	// Stations 1 and 2 each fill every other mailbox, and each
	// other's, to the cap.
	for _, id := range []uint32{2, 1} {
		f.sender, _ = srv.Station(id)
		for i := 0; i < openc2x.DefaultMailboxCap; i++ {
			f.trigger(tb)
		}
	}
	f.srv = srv
	return f
}

func (f *muxFanout) trigger(tb testing.TB) {
	if _, err := f.sender.TriggerDENM(f.req); err != nil {
		tb.Fatal(err)
	}
}

// TestAllocGuardMuxDENMFanout pins the O(1) delivery into a full
// mailbox: one trigger heard by 499 full mailboxes stays under the
// ceiling, and every receiver evicted one DENM per trigger.
func TestAllocGuardMuxDENMFanout(t *testing.T) {
	f := newMuxFanout(t, 500)
	dropped := func() uint64 { // the daemon-wide counter
		c, _ := f.srv.Metrics().Snapshot().FindCounter("openc2x_mailbox_dropped_total")
		return c.Value
	}
	before := dropped()
	const runs = 20
	guardAllocs(t, "DENM trigger into 499 full mailboxes", runs, maxAllocsMuxDENMFanout500, func() { f.trigger(t) })
	// testing.AllocsPerRun calls the function once more to warm up.
	if got, want := dropped()-before, uint64(499*(1+runs)); got != want {
		t.Fatalf("%d DENMs evicted, want %d", got, want)
	}
	probe, _ := f.srv.Station(500)
	if got := len(probe.RequestDENM()); got != openc2x.DefaultMailboxCap {
		t.Fatalf("station 500 holds %d DENMs, want the cap %d", got, openc2x.DefaultMailboxCap)
	}
}

// BenchmarkMuxDENMFanout500 measures one DENM trigger on a 500-station
// MuxServer with every mailbox full: encode, one decode, LDM ingest,
// and 499 deliveries that each evict the oldest DENM and move its
// trace into the station's /trace ring. No HTTP.
func BenchmarkMuxDENMFanout500(b *testing.B) {
	f := newMuxFanout(b, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.trigger(b)
	}
}
