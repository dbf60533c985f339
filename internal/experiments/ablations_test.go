package experiments

import (
	"strings"
	"testing"
	"time"

	"itsbed/internal/world"
)

func TestPollIntervalSweepMonotone(t *testing.T) {
	rows, err := PollIntervalSweep(7000, 8, []time.Duration{
		10 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	// recv→act grows with the poll period (the design-choice story).
	if !(rows[0].ReceiveToAction.Mean < rows[1].ReceiveToAction.Mean &&
		rows[1].ReceiveToAction.Mean < rows[2].ReceiveToAction.Mean) {
		t.Fatalf("recv→act not monotone: %.1f %.1f %.1f",
			rows[0].ReceiveToAction.Mean, rows[1].ReceiveToAction.Mean, rows[2].ReceiveToAction.Mean)
	}
	// The mean should track roughly poll/2 plus a constant.
	if rows[2].ReceiveToAction.Mean < 40 {
		t.Fatalf("100 ms poll yields %.1f ms recv→act, implausibly low", rows[2].ReceiveToAction.Mean)
	}
	if !strings.Contains(FormatPollSweep(rows), "ABL-1") {
		t.Fatal("format")
	}
}

func TestCameraFPSSweepSuccessDegrades(t *testing.T) {
	rows, err := CameraFPSSweep(7100, 12, []time.Duration{
		100 * time.Millisecond, 600 * time.Millisecond,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := rows[0], rows[1]
	if fast.SuccessRate < slow.SuccessRate {
		t.Fatalf("success ordering: fast %.2f < slow %.2f", fast.SuccessRate, slow.SuccessRate)
	}
	if fast.SuccessRate < 0.9 {
		t.Fatalf("10 FPS success %.2f, want near certain", fast.SuccessRate)
	}
	if !strings.Contains(FormatFPSSweep(rows), "ABL-2") {
		t.Fatal("format")
	}
}

func TestChannelLoadSweepRuns(t *testing.T) {
	rows, err := ChannelLoadSweep(7200, 4, []int{0, 15}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.HighPriority.N == 0 || r.LowPriority.N == 0 {
			t.Fatal("missing samples")
		}
		if r.HighPriority.Mean <= 0 || r.HighPriority.Mean > 10 {
			t.Fatalf("link latency %.2f ms implausible", r.HighPriority.Mean)
		}
	}
	if !strings.Contains(FormatLoadSweep(rows), "ABL-3") {
		t.Fatal("format")
	}
}

func TestObstructedLinkGradient(t *testing.T) {
	rows, err := ObstructedLink(7300, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	byMat := map[world.Material]ObstructionRow{}
	for _, r := range rows {
		byMat[r.Material] = r
	}
	open := byMat[0]
	metal := byMat[world.MaterialMetal]
	if open.DeliveryRate < 0.99 {
		t.Fatalf("open-air delivery %.2f", open.DeliveryRate)
	}
	if metal.DeliveryRate > 0.2 {
		t.Fatalf("metal wall single-shot delivery %.2f, want near zero", metal.DeliveryRate)
	}
	// Repetition recovers: the vehicle passes the wall and catches a
	// repeat.
	if metal.WithRepetitionRate < 0.9 {
		t.Fatalf("repetition recovery %.2f", metal.WithRepetitionRate)
	}
	if !strings.Contains(FormatObstruction(rows), "EXT-5") {
		t.Fatal("format")
	}
}

func TestBlindCornerVideoStoryHolds(t *testing.T) {
	// Small-N sanity beyond TestBlindCornerAdvantage: the V2X arm must
	// stop clear of the conflict box in most runs.
	res, err := BlindCorner(4100, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	clear := 0
	for _, m := range res.V2X.StopMargins {
		if m > 0 {
			clear++
		}
	}
	if clear < 4 {
		t.Fatalf("V2X stopped clear in only %d/6 runs", clear)
	}
}

func TestPlatoonACCStringStability(t *testing.T) {
	rows, err := PlatoonACC(9000, 3, []float64{0.5, 1.2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tight, wide := rows[0], rows[1]
	// At the tight gap the sensor-only string rear-ends; the DENM arm
	// never does.
	if tight.V2XCollisions != 0 {
		t.Fatalf("V2X arm collided %d times at 0.5 m", tight.V2XCollisions)
	}
	if tight.ACCCollisions == 0 {
		t.Fatal("ACC-only arm never collided at the tight gap")
	}
	// Margins: V2X keeps more separation everywhere.
	if tight.V2XMinGap <= tight.ACCMinGap {
		t.Fatalf("min gap ordering at 0.5 m: V2X %.2f vs ACC %.2f", tight.V2XMinGap, tight.ACCMinGap)
	}
	if wide.V2XMinGap <= wide.ACCMinGap {
		t.Fatalf("min gap ordering at 1.2 m: V2X %.2f vs ACC %.2f", wide.V2XMinGap, wide.ACCMinGap)
	}
	if !strings.Contains(FormatPlatoonACC(rows), "EXT-6") {
		t.Fatal("format")
	}
}

func TestNTPQualitySweepArtefacts(t *testing.T) {
	rows, err := NTPQualitySweep(11000, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]NTPSweepRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	perfect := byName["perfect"]
	unsync := byName["unsynchronised"]
	if perfect.NegativeRuns != 0 {
		t.Fatal("perfect clocks measured a negative radio interval")
	}
	if perfect.Measured.Min <= 0 {
		t.Fatal("perfect clocks measured non-positive link latency")
	}
	if unsync.Measured.StdDev <= perfect.Measured.StdDev*5 {
		t.Fatalf("unsynchronised stddev %.2f not dramatically worse than perfect %.2f",
			unsync.Measured.StdDev, perfect.Measured.StdDev)
	}
	if !strings.Contains(FormatNTPSweep(rows), "ABL-4") {
		t.Fatal("format")
	}
}
