package perf

import (
	"fmt"
	"testing"
	"time"

	"itsbed/internal/radio"
	"itsbed/internal/sim"
)

// pc5Fleet attaches n sidelink stations with nil positions (every
// receiver in range), so the benchmark measures pure SPS scheduling
// plus per-receiver reception evaluation.
func pc5Fleet(tb testing.TB, n int) (*sim.Kernel, *radio.PC5Medium, []*radio.PC5Interface) {
	tb.Helper()
	k := sim.NewKernel(1)
	m := radio.NewPC5Medium(k, radio.PC5Config{})
	ifaces := make([]*radio.PC5Interface, n)
	for i := 0; i < n; i++ {
		iface, err := m.Attach(fmt.Sprintf("sta%04d", i), nil)
		if err != nil {
			tb.Fatal(err)
		}
		ifaces[i] = iface
	}
	return k, m, ifaces
}

// BenchmarkPC5Tx1k measures the sidelink hot path over a 1000-station
// fleet: each op queues one 180-byte broadcast from a rotating
// transmitter onto its SPS grant and advances the simulation, so the
// per-op time covers grant scheduling, slot bookkeeping and the
// 999-receiver completion sweep.
func BenchmarkPC5Tx1k(b *testing.B) {
	k, _, ifaces := pc5Fleet(b, 1000)
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

// BenchmarkUuRoundTrip measures one RSU→OBU warning over the
// infrastructure path: uplink leg, base-station fan-out, downlink leg
// and delivery, advancing the simulation far enough to complete the
// round every op.
func BenchmarkUuRoundTrip(b *testing.B) {
	k := sim.NewKernel(1)
	l := radio.NewCellularLink(k, radio.Profile5GURLLC())
	rsu, err := l.AttachUu("rsu")
	if err != nil {
		b.Fatal(err)
	}
	obu, err := l.AttachUu("obu")
	if err != nil {
		b.Fatal(err)
	}
	obu.SetReceiver(func(*radio.Frame) {})
	frame := make([]byte, 180)
	horizon := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rsu.SendBroadcast(frame); err != nil {
			b.Fatal(err)
		}
		horizon += 50 * time.Millisecond
		k.Run(horizon)
	}
	if obu.FramesReceived == 0 {
		b.Fatal("no Uu deliveries")
	}
}
