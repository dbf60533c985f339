package radio

import (
	"testing"
	"time"

	"itsbed/internal/geo"
	"itsbed/internal/sim"
)

func TestAirtimeKnownValues(t *testing.T) {
	// 100-byte GN packet at 6 Mb/s, 10 MHz: bits = 16+6+8·136 = 1110,
	// symbols = ceil(1110/48) = 24 → 40 µs + 24·8 µs = 232 µs.
	got := Airtime(100, MCS6Mbps)
	if got != 232*time.Microsecond {
		t.Fatalf("airtime %v, want 232µs", got)
	}
	// Rate ordering: faster MCS → shorter airtime.
	if Airtime(200, MCS27Mbps) >= Airtime(200, MCS3Mbps) {
		t.Fatal("airtime not decreasing with rate")
	}
}

func TestAirtimeShortDENM(t *testing.T) {
	// The paper's DENM-over-the-air takes well under a millisecond.
	if a := Airtime(120, MCS6Mbps); a > time.Millisecond {
		t.Fatalf("DENM airtime %v", a)
	}
}

func TestPathLossMonotonic(t *testing.T) {
	m := DefaultIndoorPathLoss()
	prev := m.LossDB(1)
	for _, d := range []float64{2, 5, 10, 50, 100} {
		l := m.LossDB(d)
		if l <= prev {
			t.Fatalf("loss not increasing at %v m", d)
		}
		prev = l
	}
	// Below 1 m clamps.
	if m.LossDB(0.1) != m.LossDB(1) {
		t.Fatal("sub-metre distance not clamped")
	}
}

func TestLinkBudgetLabDistance(t *testing.T) {
	// At 10 m in the lab, a 23 dBm transmitter must be comfortably
	// above sensitivity.
	m := DefaultIndoorPathLoss()
	rx := DefaultTxPowerDBm - m.LossDB(10)
	if rx < DefaultSensitivityDBm+20 {
		t.Fatalf("rx power %v dBm at 10 m, too weak for a lab link", rx)
	}
}

func TestEDCAParameters(t *testing.T) {
	if AIFS(ACVoice) >= AIFS(ACBestEffort) {
		t.Fatal("AC_VO must access faster than AC_BE")
	}
	if AIFS(ACVoice) != SIFS+2*SlotTime {
		t.Fatalf("AC_VO AIFS %v", AIFS(ACVoice))
	}
	if CWMin(ACVoice) != 3 || CWMin(ACBestEffort) != 15 {
		t.Fatal("contention windows wrong")
	}
	// Unknown categories, on either side of the table, fall back to
	// best effort.
	for _, ac := range []AccessCategory{-1, 0, ACBackground + 1, 42} {
		if AIFS(ac) != AIFS(ACBestEffort) || CWMin(ac) != CWMin(ACBestEffort) {
			t.Fatalf("unknown %v: AIFS %v, CWMin %d; want AC_BE's", ac, AIFS(ac), CWMin(ac))
		}
	}
	if AIFS(ACBackground) != SIFS+9*SlotTime || CWMin(ACVideo) != 7 {
		t.Fatal("AC_BK or AC_VI parameters wrong")
	}
}

func TestSuccessProbabilityWaterfall(t *testing.T) {
	if successProbability(20, 8) < 0.99 {
		t.Fatal("high SINR should succeed")
	}
	if successProbability(0, 8) > 0.01 {
		t.Fatal("low SINR should fail")
	}
	at := successProbability(8, 8)
	if at < 0.45 || at > 0.55 {
		t.Fatalf("threshold success %v, want ~0.5", at)
	}
}

func newTestMedium(t *testing.T) (*sim.Kernel, *Medium) {
	t.Helper()
	k := sim.NewKernel(1)
	m := NewMedium(k, MediumConfig{
		PathLoss: PathLossModel{Exponent: 2.0, ReferenceLossDB: 47.9}, // no shadowing
	})
	return k, m
}

func attach(t *testing.T, m *Medium, name string, pos geo.Point) *Interface {
	t.Helper()
	iface, err := m.Attach(InterfaceConfig{Name: name}, func() geo.Point { return pos })
	if err != nil {
		t.Fatal(err)
	}
	return iface
}

func TestMediumDeliversBetweenNearbyRadios(t *testing.T) {
	k, m := newTestMedium(t)
	tx := attach(t, m, "tx", geo.Point{})
	rx := attach(t, m, "rx", geo.Point{X: 10})
	var got [][]byte
	rx.SetReceiver(func(f *Frame) { got = append(got, f.Bytes) })
	if err := tx.SendBroadcast([]byte("frame-1")); err != nil {
		t.Fatal(err)
	}
	k.Run(10 * time.Millisecond)
	if len(got) != 1 || string(got[0]) != "frame-1" {
		t.Fatalf("received %q", got)
	}
	if tx.FramesTransmitted != 1 || rx.FramesReceived != 1 {
		t.Fatalf("counters tx=%d rx=%d", tx.FramesTransmitted, rx.FramesReceived)
	}
}

func TestMediumRangeCutoff(t *testing.T) {
	k, m := newTestMedium(t)
	tx := attach(t, m, "tx", geo.Point{})
	// With exponent 2 and 47.9 dB at 1 m, sensitivity -92 dBm is
	// crossed around 2.3 km; place the receiver far beyond.
	rx := attach(t, m, "rx", geo.Point{X: 50000})
	n := 0
	rx.SetReceiver(func(*Frame) { n++ })
	if err := tx.SendBroadcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	k.Run(10 * time.Millisecond)
	if n != 0 {
		t.Fatal("frame decoded beyond sensitivity range")
	}
	if m.FramesLost == 0 {
		t.Fatal("loss not counted")
	}
}

func TestMediumDeliveryLatencyIsAirtime(t *testing.T) {
	k, m := newTestMedium(t)
	tx := attach(t, m, "tx", geo.Point{})
	rx := attach(t, m, "rx", geo.Point{X: 5})
	var at time.Duration
	rx.SetReceiver(func(*Frame) { at = k.Now() })
	payload := make([]byte, 100)
	if err := tx.SendBroadcast(payload); err != nil {
		t.Fatal(err)
	}
	k.Run(10 * time.Millisecond)
	want := AIFS(ACBestEffort) + Airtime(100, MCS6Mbps)
	if at != want {
		t.Fatalf("delivery at %v, want AIFS+airtime = %v", at, want)
	}
}

func TestTransmitQueueDrainsInOrder(t *testing.T) {
	k, m := newTestMedium(t)
	tx := attach(t, m, "tx", geo.Point{})
	rx := attach(t, m, "rx", geo.Point{X: 5})
	var got []string
	rx.SetReceiver(func(f *Frame) { got = append(got, string(f.Bytes)) })
	for _, s := range []string{"a", "b", "c"} {
		if err := tx.SendBroadcast([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	k.Run(100 * time.Millisecond)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("got %v", got)
	}
}

func TestQueueOverflow(t *testing.T) {
	k, m := newTestMedium(t)
	tx, err := m.Attach(InterfaceConfig{Name: "tx", QueueCap: 2}, func() geo.Point { return geo.Point{} })
	if err != nil {
		t.Fatal(err)
	}
	_ = k
	if err := tx.SendBroadcast([]byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.SendBroadcast([]byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.SendBroadcast([]byte("3")); err == nil {
		t.Fatal("overflow accepted")
	}
	if tx.FramesDroppedQueueFull != 1 {
		t.Fatalf("drops=%d", tx.FramesDroppedQueueFull)
	}
}

func TestTwoTransmittersBothDeliver(t *testing.T) {
	k, m := newTestMedium(t)
	a := attach(t, m, "a", geo.Point{})
	b := attach(t, m, "b", geo.Point{X: 3})
	c := attach(t, m, "c", geo.Point{X: 6})
	var got []string
	c.SetReceiver(func(f *Frame) { got = append(got, string(f.Bytes)) })
	if err := a.SendBroadcast([]byte("from-a")); err != nil {
		t.Fatal(err)
	}
	if err := b.SendBroadcast([]byte("from-b")); err != nil {
		t.Fatal(err)
	}
	k.Run(100 * time.Millisecond)
	// CSMA should separate the two transmissions; both arrive.
	if len(got) != 2 {
		t.Fatalf("received %v", got)
	}
}

func TestAttachValidation(t *testing.T) {
	_, m := newTestMedium(t)
	if _, err := m.Attach(InterfaceConfig{Name: "bad"}, nil); err == nil {
		t.Fatal("nil position accepted")
	}
}

func TestCellularLinkLatency(t *testing.T) {
	k := sim.NewKernel(1)
	link := NewCellularLink(k, CellularProfile{Name: "t", BaseLatency: 10 * time.Millisecond})
	var at time.Duration
	tx := uuSender(t, link, func(*Frame) { at = k.Now() })
	if err := tx.SendBroadcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	k.Run(time.Second)
	if at != 10*time.Millisecond {
		t.Fatalf("delivery at %v", at)
	}
}

func TestCellularLinkJitterAndLoss(t *testing.T) {
	k := sim.NewKernel(2)
	link := NewCellularLink(k, CellularProfile{
		Name:            "lossy",
		BaseLatency:     time.Millisecond,
		JitterMean:      time.Millisecond,
		LossProbability: 0.5,
	})
	n := 0
	tx := uuSender(t, link, func(*Frame) { n++ })
	for i := 0; i < 200; i++ {
		if err := tx.SendBroadcast([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	k.Run(time.Minute)
	if n < 60 || n > 140 {
		t.Fatalf("delivered %d/200 at 50%% loss", n)
	}
	if link.MessagesLost+uint64(n) != 200 {
		t.Fatalf("lost=%d delivered=%d", link.MessagesLost, n)
	}
}

func TestCellularProfilesOrdered(t *testing.T) {
	if Profile5GURLLC().BaseLatency >= Profile5GEMBB().BaseLatency {
		t.Fatal("URLLC must beat eMBB")
	}
	if Profile5GEMBB().BaseLatency >= ProfileLTE().BaseLatency {
		t.Fatal("5G must beat LTE")
	}
}

func TestFrameCopiedOnDelivery(t *testing.T) {
	k, m := newTestMedium(t)
	tx := attach(t, m, "tx", geo.Point{})
	rx := attach(t, m, "rx", geo.Point{X: 2})
	var got []byte
	rx.SetReceiver(func(f *Frame) { got = f.Bytes })
	original := []byte{1, 2, 3}
	if err := tx.SendBroadcast(original); err != nil {
		t.Fatal(err)
	}
	original[0] = 99 // caller mutates after send
	k.Run(10 * time.Millisecond)
	if got[0] != 1 {
		t.Fatal("frame aliased the caller's buffer")
	}
}

func TestEDCADeferralUnderContention(t *testing.T) {
	// Two stations queue frames at the same instant; the half-duplex
	// CSMA model must serialise them so both deliver without loss.
	k, m := newTestMedium(t)
	a := attach(t, m, "a2", geo.Point{})
	b := attach(t, m, "b2", geo.Point{X: 2})
	c := attach(t, m, "c2", geo.Point{X: 4})
	var got []string
	var times []time.Duration
	c.SetReceiver(func(f *Frame) {
		got = append(got, string(f.Bytes[:1]))
		times = append(times, k.Now())
	})
	payload := make([]byte, 200) // long airtime forces overlap pressure
	payload[0] = 'A'
	if err := a.SendBroadcast(payload); err != nil {
		t.Fatal(err)
	}
	p2 := make([]byte, 200)
	p2[0] = 'B'
	if err := b.SendBroadcast(p2); err != nil {
		t.Fatal(err)
	}
	k.Run(100 * time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("delivered %d/2 under contention", len(got))
	}
	// The two receptions must not be simultaneous: the second deferred
	// past the first's airtime.
	if times[1]-times[0] < Airtime(200, MCS6Mbps) {
		t.Fatalf("transmissions overlapped: %v then %v", times[0], times[1])
	}
}

func TestHalfDuplexSelfDeferral(t *testing.T) {
	k, m := newTestMedium(t)
	tx := attach(t, m, "hd", geo.Point{})
	rx := attach(t, m, "hd-rx", geo.Point{X: 3})
	var times []time.Duration
	rx.SetReceiver(func(*Frame) { times = append(times, k.Now()) })
	// Two long frames queued back to back on one radio.
	for i := 0; i < 2; i++ {
		if err := tx.SendBroadcast(make([]byte, 300)); err != nil {
			t.Fatal(err)
		}
	}
	k.Run(100 * time.Millisecond)
	if len(times) != 2 {
		t.Fatalf("delivered %d/2", len(times))
	}
	if times[1]-times[0] < Airtime(300, MCS6Mbps) {
		t.Fatalf("radio transmitted while still on the air: gap %v", times[1]-times[0])
	}
}
