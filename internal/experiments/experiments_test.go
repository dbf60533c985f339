package experiments

import (
	"strings"
	"testing"
	"time"

	"itsbed/internal/core"
	"itsbed/internal/perception"
)

// fastOpt runs experiments with the ground-truth line follower.
func fastOpt(seed int64, runs int) ScenarioOptions {
	return ScenarioOptions{BaseSeed: seed, Runs: runs, UseVision: false}
}

func TestTableIIShape(t *testing.T) {
	res, err := TableII(fastOpt(42, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	// The paper's shape: the radio link is a minimal fraction of the
	// budget; total always under 100 ms; perception and actuation
	// dominate.
	if res.AvgSendToReceive >= res.AvgDetectionToSend/3 {
		t.Fatalf("radio link %v not minor vs detection %v", res.AvgSendToReceive, res.AvgDetectionToSend)
	}
	if res.AvgSendToReceive >= res.AvgReceiveToAction/3 {
		t.Fatal("radio link not minor vs actuation path")
	}
	if res.MaxTotal >= 100*time.Millisecond {
		t.Fatalf("max total %v breaches 100 ms", res.MaxTotal)
	}
	if ms := res.AvgTotal.Milliseconds(); ms < 35 || ms > 85 {
		t.Fatalf("avg total %v outside the paper's regime (~58 ms)", res.AvgTotal)
	}
	out := res.Format()
	if !strings.Contains(out, "TABLE II") || !strings.Contains(out, "Total Delay") {
		t.Fatal("format output incomplete")
	}
}

func TestTableIIIShape(t *testing.T) {
	res, err := TableIII(fastOpt(300, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Distances) != 7 {
		t.Fatalf("distances %d", len(res.Distances))
	}
	// Paper: avg 0.36 m, always under one vehicle length.
	if res.Summary.Mean < 0.2 || res.Summary.Mean > 0.5 {
		t.Fatalf("mean braking distance %.3f", res.Summary.Mean)
	}
	for _, d := range res.Distances {
		if d >= res.VehicleLength {
			t.Fatalf("braking distance %.2f exceeds the vehicle length", d)
		}
		if d <= 0 {
			t.Fatalf("non-positive braking distance %.2f", d)
		}
	}
	if res.Summary.Variance <= 0 || res.Summary.Variance > 0.01 {
		t.Fatalf("variance %.5f", res.Summary.Variance)
	}
	if !strings.Contains(res.Format(), "TABLE III") {
		t.Fatal("format")
	}
}

func TestFigure11FromTableII(t *testing.T) {
	res, err := Figure11(fastOpt(42, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 5 {
		t.Fatal("sample count")
	}
	if res.EDF.F[len(res.EDF.F)-1] != 1 {
		t.Fatal("EDF must end at 1")
	}
	if !strings.Contains(res.Format(), "Fig. 11") {
		t.Fatal("format")
	}
}

func TestFigure10Reading(t *testing.T) {
	res, err := Figure10(fastOpt(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Video.Valid {
		t.Fatal("invalid video analysis")
	}
	if res.Video.CrossingFrameDistance > res.ActionPointDistance {
		t.Fatal("crossing frame beyond the action point")
	}
	if !strings.Contains(res.Format(), "detection-to-stop") {
		t.Fatal("format")
	}
}

func TestFigure7Ordering(t *testing.T) {
	res := Figure7(9, 800)
	rate := func(d perception.Dressing, view string, dist float64) float64 {
		for _, c := range res.Cells {
			if c.Dressing == d && c.ViewLabel == view && c.DistanceM == dist {
				return c.DetectionRate
			}
		}
		t.Fatalf("cell %v/%s/%.1f missing", d, view, dist)
		return 0
	}
	// The paper's qualitative findings, quantified:
	// stop sign beats everything at every condition sampled here.
	if rate(perception.DressingStopSign, "head-on", 1.5) < 0.75 {
		t.Fatal("stop sign unreliable")
	}
	if rate(perception.DressingStopSign, "3/4 view", 1.5) < 0.75 {
		t.Fatal("stop sign angle sensitive")
	}
	// Shell recognised head-on but collapses at long range.
	if rate(perception.DressingShell, "head-on", 1.5) < 0.4 {
		t.Fatal("shell not recognised head-on")
	}
	if rate(perception.DressingShell, "head-on", 5.0) != 0 {
		t.Fatal("shell recognised at 5 m")
	}
	// Bare vehicle: nothing beyond ~2 m.
	if rate(perception.DressingBare, "3/4 view", 4.0) != 0 {
		t.Fatal("bare vehicle recognised at 4 m")
	}
	if !strings.Contains(res.Format(), "Fig. 7") {
		t.Fatal("format")
	}
}

func TestLatencyCDFSmall(t *testing.T) {
	res, err := LatencyCDF(1000, 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.N != 40 {
		t.Fatalf("N=%d", res.Summary.N)
	}
	if res.Summary.Mean < 35 || res.Summary.Mean > 85 {
		t.Fatalf("mean %.1f ms", res.Summary.Mean)
	}
	if res.NormalKS <= 0 || res.GammaKS <= 0 {
		t.Fatal("KS distances must be positive")
	}
	if !strings.Contains(res.Format(), "EXT-1") {
		t.Fatal("format")
	}
}

func TestRadioComparisonOrdering(t *testing.T) {
	res, err := RadioComparison(2000, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	byName := map[string]RadioRow{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	itsg5 := byName["ITS-G5 (802.11p)"]
	lte := byName["LTE public"]
	if itsg5.SendToReceiveMS >= lte.SendToReceiveMS {
		t.Fatalf("link latency ordering: ITS-G5 %.2f vs LTE %.2f", itsg5.SendToReceiveMS, lte.SendToReceiveMS)
	}
	if itsg5.Summary.Mean >= lte.Summary.Mean {
		t.Fatal("total ordering: LTE must be slower end to end")
	}
	if !strings.Contains(res.Format(), "EXT-2") {
		t.Fatal("format")
	}
}

func TestPlatoonAllMembersStop(t *testing.T) {
	res, err := Platoon(3000, 4, PlatoonITSG5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != 4 {
		t.Fatalf("members %d", len(res.Members))
	}
	for _, m := range res.Members {
		if !m.Stopped {
			t.Fatalf("member %d did not stop", m.Member)
		}
		if m.DetectionToAction <= 0 || m.DetectionToAction > 150*time.Millisecond {
			t.Fatalf("member %d delay %v", m.Member, m.DetectionToAction)
		}
	}
	if res.WholePlatoon < res.Members[0].DetectionToAction {
		t.Fatal("whole-platoon delay below the leader's")
	}
	if !strings.Contains(res.Format(), "EXT-3") {
		t.Fatal("format")
	}
}

func TestPlatoonHybridSlowerOnAverage(t *testing.T) {
	a, err := PlatoonStudy(3000, 6, 3, PlatoonITSG5, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlatoonStudy(3000, 6, 3, PlatoonHybrid, 0)
	if err != nil {
		t.Fatal(err)
	}
	if avg(b.WholePlatoonMS) < avg(a.WholePlatoonMS)-1 {
		t.Fatalf("hybrid (%.1f ms) should not beat direct ITS-G5 (%.1f ms)",
			avg(b.WholePlatoonMS), avg(a.WholePlatoonMS))
	}
}

// TestPlatoonStudyDefaultRuns pins PlatoonStudy's default: runs 0
// accepts 8 runs, as the CLI's "0 = experiment default" promises.
func TestPlatoonStudyDefaultRuns(t *testing.T) {
	res, err := PlatoonStudy(3000, 0, 3, PlatoonITSG5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 8 || len(res.WholePlatoonMS) != 8 {
		t.Fatalf("runs 0: %d runs, %d delays; want 8", res.Runs, len(res.WholePlatoonMS))
	}
}

func TestBlindCornerAdvantage(t *testing.T) {
	res, err := BlindCorner(4000, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.V2X.Summary.Mean <= res.Onboard.Summary.Mean {
		t.Fatalf("V2X margin %.2f not better than onboard %.2f",
			res.V2X.Summary.Mean, res.Onboard.Summary.Mean)
	}
	if res.Onboard.Collisions <= res.V2X.Collisions {
		t.Fatalf("collision ordering: onboard %d vs V2X %d",
			res.Onboard.Collisions, res.V2X.Collisions)
	}
	if !strings.Contains(res.Format(), "EXT-4") {
		t.Fatal("format")
	}
}

func TestCollectRunsRetries(t *testing.T) {
	opt := fastOpt(42, 2).withDefaults()
	attempts := 0
	// Reject the first attempt; the harness must retry with the next
	// seed like a lab operator repeating a failed run.
	runs, err := collectRuns(opt, 2, func(r *core.Result) bool {
		attempts++
		return attempts > 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || attempts != 3 {
		t.Fatalf("runs=%d attempts=%d", len(runs), attempts)
	}
}

func TestCollectRunsGivesUp(t *testing.T) {
	opt := fastOpt(42, 1).withDefaults()
	if _, err := collectRuns(opt, 1, func(*core.Result) bool { return false }); err == nil {
		t.Fatal("hopeless collection did not fail")
	}
}
