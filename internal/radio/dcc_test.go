package radio

import (
	"testing"
	"time"

	"itsbed/internal/geo"
)

func TestCBRMeterEmptyWindow(t *testing.T) {
	k, m := newTestMedium(t)
	iface := attach(t, m, "sta", geo.Point{})
	meter := NewCBRMeter(k, iface, 100*time.Millisecond, 2)
	if meter.CBR() != 0 || meter.n != 0 {
		t.Fatalf("fresh meter CBR %v samples %d, want 0/0", meter.CBR(), meter.n)
	}
	// Before the first interval closes the meter still reads zero even
	// if the channel has been busy.
	iface.busyAccum = 50 * time.Millisecond
	k.Run(99 * time.Millisecond)
	if meter.CBR() != 0 || meter.n != 0 {
		t.Fatalf("pre-first-sample CBR %v samples %d", meter.CBR(), meter.n)
	}
}

func TestCBRMeterExactlyFullWindow(t *testing.T) {
	k, m := newTestMedium(t)
	iface := attach(t, m, "sta", geo.Point{})
	meter := NewCBRMeter(k, iface, 100*time.Millisecond, 4)
	// Busy 30 ms in interval 1, 50 ms in interval 2, idle in 3 and 4:
	// after exactly four intervals the window holds {0.3, 0.5, 0, 0}.
	k.ScheduleFn(10*time.Millisecond, func() { iface.busyAccum += 30 * time.Millisecond })
	k.ScheduleFn(110*time.Millisecond, func() { iface.busyAccum += 50 * time.Millisecond })
	k.Run(400 * time.Millisecond)
	if meter.n != 4 {
		t.Fatalf("samples %d, want 4", meter.n)
	}
	want := (0.3 + 0.5 + 0 + 0) / 4
	if got := meter.CBR(); !closeTo(got, want) {
		t.Fatalf("CBR %v, want %v", got, want)
	}
}

func TestCBRMeterPartialWindowAveragesFilledOnly(t *testing.T) {
	k, m := newTestMedium(t)
	iface := attach(t, m, "sta", geo.Point{})
	meter := NewCBRMeter(k, iface, 100*time.Millisecond, 4)
	k.ScheduleFn(10*time.Millisecond, func() { iface.busyAccum += 40 * time.Millisecond })
	// One interval closed: the average spans one sample, not four.
	k.Run(150 * time.Millisecond)
	if meter.n != 1 {
		t.Fatalf("samples %d, want 1", meter.n)
	}
	if got := meter.CBR(); !closeTo(got, 0.4) {
		t.Fatalf("CBR %v, want 0.4", got)
	}
}

func TestCBRMeterWraparound(t *testing.T) {
	k, m := newTestMedium(t)
	iface := attach(t, m, "sta", geo.Point{})
	meter := NewCBRMeter(k, iface, 100*time.Millisecond, 2)
	// Busy the full first interval, then idle: after three intervals
	// the ring has wrapped and the saturated sample has been evicted,
	// leaving {0, 0}.
	iface.busyAccum = 100 * time.Millisecond
	k.Run(350 * time.Millisecond)
	if meter.n != 2 {
		t.Fatalf("samples %d, want window cap 2", meter.n)
	}
	if got := meter.CBR(); got != 0 {
		t.Fatalf("CBR %v after wraparound, want 0", got)
	}
}

func TestCBRMeterClampsSaturatedInterval(t *testing.T) {
	k, m := newTestMedium(t)
	iface := attach(t, m, "sta", geo.Point{})
	meter := NewCBRMeter(k, iface, 100*time.Millisecond, 1)
	// An accounting jump larger than the interval clamps to 1.
	iface.busyAccum = time.Second
	k.Run(150 * time.Millisecond)
	if got := meter.CBR(); got != 1 {
		t.Fatalf("CBR %v, want clamp to 1", got)
	}
}

func TestDCCStateMapping(t *testing.T) {
	k, m := newTestMedium(t)
	iface := attach(t, m, "sta", geo.Point{})
	d := NewDCC(k, iface, ReactiveProfile{})
	cases := []struct {
		cbr      float64
		state    int
		interval time.Duration
	}{
		{0.0, 0, 60 * time.Millisecond},
		{0.18, 0, 60 * time.Millisecond},
		{0.19, 1, 100 * time.Millisecond},
		{0.30, 2, 180 * time.Millisecond},
		{0.40, 3, 260 * time.Millisecond},
		{0.43, 4, 540 * time.Millisecond},
		{0.99, 4, 540 * time.Millisecond},
	}
	for _, c := range cases {
		// Pin the smoothed CBR directly: the ring is white-box state.
		d.meter.ring = []float64{c.cbr}
		d.meter.n = 1
		if got := d.State(); got != c.state {
			t.Fatalf("CBR %v: state %d, want %d", c.cbr, got, c.state)
		}
		if got := d.MinInterval(); got != c.interval {
			t.Fatalf("CBR %v: interval %v, want %v", c.cbr, got, c.interval)
		}
	}
	// Throttled counts only above-Relaxed answers: 5 of the 7 cases.
	if d.Throttled != 5 {
		t.Fatalf("throttled %d, want 5", d.Throttled)
	}
}

func TestDCCRejectsMalformedProfile(t *testing.T) {
	k, m := newTestMedium(t)
	iface := attach(t, m, "sta", geo.Point{})
	// Mismatched table lengths fall back to the default profile.
	d := NewDCC(k, iface, ReactiveProfile{
		Thresholds: []float64{0.5},
		Intervals:  []time.Duration{time.Millisecond},
	})
	if got := d.MinInterval(); got != 60*time.Millisecond {
		t.Fatalf("malformed profile not replaced: floor %v", got)
	}
}

func closeTo(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestReactiveProfileValidate tables the structural invariants: the old
// length-only check accepted tables whose thresholds were unordered or
// whose intervals shrank under congestion.
func TestReactiveProfileValidate(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		name    string
		profile ReactiveProfile
		valid   bool
	}{
		{"default", DefaultReactiveProfile(), true},
		{"zero value", ReactiveProfile{}, false},
		{"length mismatch", ReactiveProfile{
			Thresholds: []float64{0.5},
			Intervals:  ms(60),
		}, false},
		{"single state no thresholds", ReactiveProfile{
			Intervals: ms(100),
		}, true},
		{"thresholds decreasing", ReactiveProfile{
			Thresholds: []float64{0.4, 0.2},
			Intervals:  ms(60, 100, 180),
		}, false},
		{"thresholds duplicated", ReactiveProfile{
			Thresholds: []float64{0.3, 0.3},
			Intervals:  ms(60, 100, 180),
		}, false},
		{"threshold at zero", ReactiveProfile{
			Thresholds: []float64{0, 0.3},
			Intervals:  ms(60, 100, 180),
		}, false},
		{"threshold at one", ReactiveProfile{
			Thresholds: []float64{0.3, 1},
			Intervals:  ms(60, 100, 180),
		}, false},
		{"intervals shrink under congestion", ReactiveProfile{
			Thresholds: []float64{0.2, 0.4},
			Intervals:  ms(100, 60, 180),
		}, false},
		{"zero interval", ReactiveProfile{
			Thresholds: []float64{0.2},
			Intervals:  ms(0, 100),
		}, false},
		{"plateau intervals", ReactiveProfile{
			Thresholds: []float64{0.2, 0.4},
			Intervals:  ms(100, 100, 200),
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.profile.Validate()
			if c.valid && err != nil {
				t.Fatalf("valid profile rejected: %v", err)
			}
			if !c.valid && err == nil {
				t.Fatal("invalid profile accepted")
			}
		})
	}
}

// TestDCCFallsBackOnDisorderedProfile pins the fix: a table with the
// right lengths but shrinking intervals used to slip past NewDCC and
// make congestion speed transmission up.
func TestDCCFallsBackOnDisorderedProfile(t *testing.T) {
	k, m := newTestMedium(t)
	iface := attach(t, m, "sta-v", geo.Point{})
	d := NewDCC(k, iface, ReactiveProfile{
		Thresholds: []float64{0.2, 0.4},
		Intervals: []time.Duration{
			500 * time.Millisecond,
			100 * time.Millisecond, // faster when busier: nonsense
			60 * time.Millisecond,
		},
	})
	if got := d.MinInterval(); got != 60*time.Millisecond {
		t.Fatalf("disordered profile not replaced: floor %v", got)
	}
}
