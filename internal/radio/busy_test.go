package radio

import (
	"testing"
	"time"

	"itsbed/internal/geo"
	"itsbed/internal/sim"
)

// airTransmission crafts a transmission on the medium's air directly,
// bypassing the EDCA queue, so busy-accounting edge cases (overlap,
// zero duration) can be staged that the protocol itself would avoid.
func airTransmission(m *Medium, src *Interface, start, end time.Duration) *transmission {
	t := &transmission{src: src, start: start, end: end, powerDBm: src.cfg.TxPowerDBm}
	m.ongoing = append(m.ongoing, t)
	return t
}

func TestBusyAtSensesOngoingTransmission(t *testing.T) {
	k, m := newTestMedium(t)
	tx := attach(t, m, "tx", geo.Point{})
	rx := attach(t, m, "rx", geo.Point{X: 10})
	far := attach(t, m, "far", geo.Point{X: 1e7})
	airTransmission(m, tx, 0, time.Millisecond)
	if !m.busyAt(tx) {
		t.Fatal("transmitter must sense its own frame (half-duplex)")
	}
	if !m.busyAt(rx) {
		t.Fatal("nearby receiver must sense the channel busy")
	}
	if m.busyAt(far) {
		t.Fatal("receiver far beyond carrier sense must see idle")
	}
	if got := m.busyUntil(rx); got != time.Millisecond {
		t.Fatalf("busyUntil %v, want 1ms", got)
	}
	// Advance past the end: expired transmissions no longer bind.
	k.ScheduleFn(2*time.Millisecond, func() {
		if m.busyAt(rx) {
			t.Error("channel busy after transmission end")
		}
		if m.busyUntil(rx) != 0 {
			t.Error("busyUntil nonzero after transmission end")
		}
	})
	k.Run(3 * time.Millisecond)
}

func TestBusyUntilOverlappingTransmissions(t *testing.T) {
	_, m := newTestMedium(t)
	a := attach(t, m, "a", geo.Point{})
	b := attach(t, m, "b", geo.Point{X: 5})
	rx := attach(t, m, "rx", geo.Point{X: 10})
	// Two frames overlapping in time: the receiver defers to the later
	// end, not the first it happens to scan.
	airTransmission(m, a, 0, 300*time.Microsecond)
	airTransmission(m, b, 100*time.Microsecond, 500*time.Microsecond)
	if got := m.busyUntil(rx); got != 500*time.Microsecond {
		t.Fatalf("busyUntil %v, want 500µs", got)
	}
	if !m.busyAt(rx) {
		t.Fatal("channel must be busy under overlap")
	}
}

func TestBusyAtZeroDurationFrame(t *testing.T) {
	_, m := newTestMedium(t)
	tx := attach(t, m, "tx", geo.Point{})
	rx := attach(t, m, "rx", geo.Point{X: 10})
	// A degenerate zero-airtime frame (end == start == now) never makes
	// the channel busy: the half-open [start, end) interval is empty.
	airTransmission(m, tx, 0, 0)
	if m.busyAt(rx) || m.busyAt(tx) {
		t.Fatal("zero-duration frame made the channel busy")
	}
	if m.busyUntil(rx) != 0 {
		t.Fatal("zero-duration frame extended busyUntil")
	}
}

func TestNoteBusyUnionNotSum(t *testing.T) {
	_, m := newTestMedium(t)
	rx := attach(t, m, "rx", geo.Point{})
	src := attach(t, m, "src", geo.Point{X: 5})
	note := func(start, end time.Duration) {
		m.noteBusy(rx, &transmission{src: src, start: start, end: end})
	}
	// Overlapping [0,100µs] and [50µs,150µs] merge to 150µs busy.
	note(0, 100*time.Microsecond)
	note(50*time.Microsecond, 150*time.Microsecond)
	if got := rx.ChannelBusyTime(); got != 150*time.Microsecond {
		t.Fatalf("busy accum %v, want 150µs (union, not sum)", got)
	}
	// A frame fully contained in already-counted time adds nothing.
	note(60*time.Microsecond, 90*time.Microsecond)
	if got := rx.ChannelBusyTime(); got != 150*time.Microsecond {
		t.Fatalf("contained interval double-counted: %v", got)
	}
	// A zero-duration frame adds nothing.
	note(200*time.Microsecond, 200*time.Microsecond)
	if got := rx.ChannelBusyTime(); got != 150*time.Microsecond {
		t.Fatalf("zero-duration interval counted: %v", got)
	}
	// A disjoint later frame adds its full airtime.
	note(300*time.Microsecond, 400*time.Microsecond)
	if got := rx.ChannelBusyTime(); got != 250*time.Microsecond {
		t.Fatalf("disjoint interval: %v, want 250µs", got)
	}
}

func TestSensesMatchesExactComputation(t *testing.T) {
	// The threshold-cache fast path and the exact rx-power comparison
	// must agree for a spread of distances (away from the ulp-boundary
	// the cache is allowed to decide either way).
	k := sim.NewKernel(3)
	m := NewMedium(k, MediumConfig{
		PathLoss: PathLossModel{Exponent: 3, ReferenceLossDB: 47.9, ShadowingSigmaDB: 4},
	})
	src, err := m.Attach(InterfaceConfig{Name: "src"}, func() geo.Point { return geo.Point{} })
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{1, 10, 50, 120, 250, 600, 1500, 5000} {
		d := d
		dst, err := m.Attach(InterfaceConfig{Name: "dst"}, func() geo.Point { return geo.Point{X: d} })
		if err != nil {
			t.Fatal(err)
		}
		tr := &transmission{src: src, end: time.Second, powerDBm: src.cfg.TxPowerDBm}
		fast := m.senses(tr, dst, dst.pos())
		exact := m.rxPowerDBm(tr, dst) >= m.cfg.CarrierSenseDBm
		if fast != exact {
			t.Fatalf("d=%v: senses fast path %v, exact %v", d, fast, exact)
		}
	}
}
