package clock

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

type fakeSource struct{ t time.Duration }

func (f *fakeSource) Now() time.Duration { return f.t }

func TestPerfectClockTracksSource(t *testing.T) {
	src := &fakeSource{}
	c := NewNTP(src, PerfectNTP(), nil)
	for _, tt := range []time.Duration{0, time.Millisecond, time.Hour} {
		src.t = tt
		if got := c.Now(); got != tt {
			t.Fatalf("Now()=%v, want %v", got, tt)
		}
	}
}

func TestOffsetWithinStatisticalBounds(t *testing.T) {
	src := &fakeSource{}
	model := NTPModel{OffsetStdDev: time.Millisecond}
	rng := rand.New(rand.NewSource(3))
	var sum, sumSq float64
	const n = 2000
	for i := 0; i < n; i++ {
		c := NewNTP(src, model, rng)
		off := float64(c.offset)
		sum += off
		sumSq += off * off
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > float64(200*time.Microsecond) {
		t.Fatalf("offset mean %v, want ~0", time.Duration(mean))
	}
	if std < float64(800*time.Microsecond) || std > float64(1200*time.Microsecond) {
		t.Fatalf("offset stddev %v, want ~1ms", time.Duration(std))
	}
}

func TestJitterVariesReadings(t *testing.T) {
	src := &fakeSource{t: time.Second}
	c := NewNTP(src, NTPModel{JitterStdDev: 100 * time.Microsecond}, rand.New(rand.NewSource(1)))
	a, b := c.Now(), c.Now()
	if a == b {
		t.Fatal("jittered readings identical (possible but vanishingly unlikely)")
	}
}

func TestResyncResamplesOffset(t *testing.T) {
	src := &fakeSource{}
	model := NTPModel{OffsetStdDev: time.Millisecond, ResyncInterval: time.Second}
	c := NewNTP(src, model, rand.New(rand.NewSource(2)))
	first := c.offset
	src.t = 2 * time.Second
	c.Now()
	if c.offset == first {
		t.Fatal("offset not resampled after resync interval")
	}
}

func TestDriftGrowsBetweenResyncs(t *testing.T) {
	src := &fakeSource{}
	model := NTPModel{DriftPPM: 100} // large for visibility
	c := NewNTP(src, model, rand.New(rand.NewSource(1)))
	src.t = 10 * time.Second
	reading := c.Now()
	wantDrift := time.Duration(float64(10*time.Second) * 100 / 1e6)
	if reading-src.t != wantDrift {
		t.Fatalf("drift %v, want %v", reading-src.t, wantDrift)
	}
}

func TestTrueNowIgnoresErrorModel(t *testing.T) {
	src := &fakeSource{t: 5 * time.Second}
	c := NewNTP(src, NTPModel{OffsetStdDev: time.Second}, rand.New(rand.NewSource(1)))
	if c.TrueNow() != 5*time.Second {
		t.Fatalf("TrueNow()=%v", c.TrueNow())
	}
}

func TestWallSourceMonotonic(t *testing.T) {
	w := Wall()
	a := w.Now()
	b := w.Now()
	if b < a {
		t.Fatalf("wall source went backwards: %v then %v", a, b)
	}
}

func TestTimestampItsEpoch(t *testing.T) {
	// Virtual zero corresponds to SimEpoch.
	ts := TimestampIts(0)
	want := uint64(SimEpoch.Sub(ITSEpoch) / time.Millisecond)
	if ts != want {
		t.Fatalf("TimestampIts(0)=%d, want %d", ts, want)
	}
}

func TestTimestampItsRoundTrip(t *testing.T) {
	f := func(ms uint32) bool {
		v := time.Duration(ms) * time.Millisecond
		return FromTimestampIts(TimestampIts(v)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimestampItsMonotone(t *testing.T) {
	if TimestampIts(time.Second) <= TimestampIts(0) {
		t.Fatal("timestamps not increasing with virtual time")
	}
	if TimestampIts(time.Second)-TimestampIts(0) != 1000 {
		t.Fatal("timestamp unit is not milliseconds")
	}
}

func TestDefaultLANNTPSane(t *testing.T) {
	m := DefaultLANNTP()
	if m.OffsetStdDev <= 0 || m.OffsetStdDev > 5*time.Millisecond {
		t.Fatalf("lab NTP offset stddev %v implausible", m.OffsetStdDev)
	}
	if m.ResyncInterval <= 0 {
		t.Fatal("lab NTP must resync")
	}
}
