package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLatitudeRoundTrip(t *testing.T) {
	f := func(microdeg int32) bool {
		deg := float64(microdeg%900000000) / 1e7
		l := LatitudeFromDegrees(deg)
		return math.Abs(l.Degrees()-deg) < 1e-7/2+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatitudeClamping(t *testing.T) {
	if LatitudeFromDegrees(95) != LatitudeMax-1 {
		t.Fatalf("over-range latitude = %d", LatitudeFromDegrees(95))
	}
	if LatitudeFromDegrees(-95) != LatitudeMin {
		t.Fatalf("under-range latitude = %d", LatitudeFromDegrees(-95))
	}
}

func TestLatitudeSentinel(t *testing.T) {
	if LatitudeFromDegrees(41.178) == LatitudeUnavailable {
		t.Fatal("valid latitude reported unavailable")
	}
}

func TestLongitudeRoundTrip(t *testing.T) {
	for _, deg := range []float64{-180, -8.6080, 0, 8.6, 179.9999999} {
		l := LongitudeFromDegrees(deg)
		if math.Abs(l.Degrees()-deg) > 1e-7 {
			t.Fatalf("longitude %v -> %v", deg, l.Degrees())
		}
	}
}

func TestSpeedConversions(t *testing.T) {
	if SpeedFromMS(0) != SpeedStandstill {
		t.Fatal("zero speed is not standstill")
	}
	if SpeedFromMS(-3) != SpeedStandstill {
		t.Fatal("negative speed not clamped")
	}
	if SpeedFromMS(1.5) != 150 {
		t.Fatalf("1.5 m/s = %d, want 150", SpeedFromMS(1.5))
	}
	if SpeedFromMS(1e6) != SpeedMax {
		t.Fatal("over-range speed not clamped to max")
	}
	if !almost(SpeedFromMS(1.5).MS(), 1.5, 0.005) {
		t.Fatal("speed round trip")
	}
}

func TestHeadingConversions(t *testing.T) {
	if HeadingFromRadians(0) != HeadingNorth {
		t.Fatal("zero heading is not north")
	}
	if HeadingFromRadians(math.Pi/2) != 900 {
		t.Fatalf("east = %d, want 900", HeadingFromRadians(math.Pi/2))
	}
	// Negative angles wrap.
	if HeadingFromRadians(-math.Pi/2) != 2700 {
		t.Fatalf("west = %d, want 2700", HeadingFromRadians(-math.Pi/2))
	}
	// 360° wraps to 0.
	if HeadingFromRadians(2*math.Pi) != 0 {
		t.Fatalf("360° = %d, want 0", HeadingFromRadians(2*math.Pi))
	}
}

func TestHeadingRoundTrip(t *testing.T) {
	f := func(milli uint16) bool {
		rad := float64(milli) / 65535 * 2 * math.Pi * 0.9999
		h := HeadingFromRadians(rad)
		diff := math.Abs(h.Radians() - rad)
		if diff > math.Pi {
			diff = 2*math.Pi - diff
		}
		return diff < 0.1*math.Pi/180+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStationTypeStrings(t *testing.T) {
	cases := map[StationType]string{
		StationTypePassengerCar: "passengerCar",
		StationTypeRoadSideUnit: "roadSideUnit",
		StationTypeMotorcycle:   "motorcycle",
		StationType(200):        "unknown",
	}
	for st, want := range cases {
		if st.String() != want {
			t.Fatalf("%d.String()=%q, want %q", st, st, want)
		}
	}
}

func TestDeltaTime(t *testing.T) {
	if DeltaTimeFromTimestamp(65536) != 0 {
		t.Fatal("delta time must wrap at 2^16")
	}
	if DeltaTimeFromTimestamp(65537) != 1 {
		t.Fatal("delta time wrap offset")
	}
}

func TestSemiAxis(t *testing.T) {
	if SemiAxisFromMetres(-1) != SemiAxisUnavailable {
		t.Fatal("negative confidence")
	}
	if SemiAxisFromMetres(0.05) != 5 {
		t.Fatalf("5 cm = %d", SemiAxisFromMetres(0.05))
	}
	if SemiAxisFromMetres(1000) != 4094 {
		t.Fatal("out-of-range confidence should use the out-of-range code")
	}
}

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// Table-driven boundary cases for the fixed-point conversions: exact
// range limits, clamping just past them, and sentinel preservation.
func TestConversionBoundaries(t *testing.T) {
	t.Run("latitude", func(t *testing.T) {
		cases := []struct {
			deg  float64
			want Latitude
		}{
			{0, 0},
			{90, 900000000},
			{-90, -900000000},
			{90.1, 900000000},   // clamped below the sentinel
			{-90.1, -900000000}, // clamped at the minimum
			{1e-7, 1},           // one LSB
			{-1e-7, -1},
		}
		for _, tc := range cases {
			if got := LatitudeFromDegrees(tc.deg); got != tc.want {
				t.Errorf("LatitudeFromDegrees(%v) = %d, want %d", tc.deg, got, tc.want)
			}
		}
		if LatitudeFromDegrees(91) == LatitudeUnavailable {
			t.Error("clamped latitude must stay available (never the sentinel)")
		}
	})
	t.Run("longitude", func(t *testing.T) {
		cases := []struct {
			deg  float64
			want Longitude
		}{
			{0, 0},
			{180, 1800000000},
			{-180, -1800000000},
			{180.5, 1800000000},
			{-180.5, -1800000000},
		}
		for _, tc := range cases {
			if got := LongitudeFromDegrees(tc.deg); got != tc.want {
				t.Errorf("LongitudeFromDegrees(%v) = %d, want %d", tc.deg, got, tc.want)
			}
		}
	})
	t.Run("speed", func(t *testing.T) {
		cases := []struct {
			ms   float64
			want Speed
		}{
			{0, SpeedStandstill},
			{-3, SpeedStandstill}, // negative clamps to standstill
			{163.82, SpeedMax},    // exact top of range
			{163.83, SpeedMax},    // clamps below the sentinel
			{1000, SpeedMax},
			{0.01, 1},  // one LSB
			{0.004, 0}, // rounds down
			{0.005, 1}, // rounds half away from zero
		}
		for _, tc := range cases {
			if got := SpeedFromMS(tc.ms); got != tc.want {
				t.Errorf("SpeedFromMS(%v) = %d, want %d", tc.ms, got, tc.want)
			}
		}
		if SpeedFromMS(1e6) == SpeedUnavailable {
			t.Error("clamped speed must stay available (never the sentinel)")
		}
	})
	t.Run("heading", func(t *testing.T) {
		const rad = math.Pi / 180
		cases := []struct {
			rad  float64
			want Heading
		}{
			{0, HeadingNorth},
			{2 * math.Pi, HeadingNorth},  // full turn wraps to north
			{-math.Pi / 2, 2700},         // -90° = 270°
			{359.99 * rad, HeadingNorth}, // rounds to 360.0° then wraps
			{359.94 * rad, 3599},         // stays just under the wrap
			{math.Pi, 1800},
		}
		for _, tc := range cases {
			if got := HeadingFromRadians(tc.rad); got != tc.want {
				t.Errorf("HeadingFromRadians(%v) = %d, want %d", tc.rad, got, tc.want)
			}
		}
	})
	t.Run("semiAxis", func(t *testing.T) {
		cases := []struct {
			m    float64
			want SemiAxisLength
		}{
			{-0.01, SemiAxisUnavailable},
			{0, 0},
			{40.93, 4093}, // top of the in-range scale
			{40.94, 4094}, // out-of-range indicator
			{1e6, 4094},
		}
		for _, tc := range cases {
			if got := SemiAxisFromMetres(tc.m); got != tc.want {
				t.Errorf("SemiAxisFromMetres(%v) = %d, want %d", tc.m, got, tc.want)
			}
		}
	})
	t.Run("deltaTime", func(t *testing.T) {
		cases := []struct {
			ts   uint64
			want DeltaTime
		}{
			{0, 0},
			{65535, 65535},
			{65536, 0}, // wraps at 2^16
			{65536 + 7, 7},
		}
		for _, tc := range cases {
			if got := DeltaTimeFromTimestamp(tc.ts); got != tc.want {
				t.Errorf("DeltaTimeFromTimestamp(%d) = %d, want %d", tc.ts, got, tc.want)
			}
		}
	})
}
