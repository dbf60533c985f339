package core

import (
	"fmt"
	"testing"
	"time"

	"itsbed/internal/radio"
	"itsbed/internal/trace"
	"itsbed/internal/tracing"
)

// runScenario runs one default scenario with the ground-truth line
// follower (fast) unless vision is requested.
func runScenario(t *testing.T, seed int64, vision bool) (*Testbed, *Result) {
	t.Helper()
	cfg := Config{Seed: seed}
	if !vision {
		cfg = Config{Seed: seed}
		cfg.Layout = cfg.withDefaults().Layout
		vcfg := cfg.withDefaults().Vehicle
		vcfg.UseVision = false
		cfg.Vehicle = vcfg
	}
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.RunScenario(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return tb, res
}

func TestScenarioCompletesChain(t *testing.T) {
	tb, res := runScenario(t, 101, false)
	if !res.Stopped {
		t.Fatal("vehicle did not stop")
	}
	if !res.Run.Complete() {
		t.Fatal("step chain incomplete")
	}
	// Step ordering 1..6 in true causal order (per-platform clocks can
	// wobble by less than a millisecond; steps are tens apart).
	var prev time.Duration
	for s := trace.StepActionPoint; s <= trace.StepHalt; s++ {
		at, ok := res.Run.At(s)
		if !ok {
			t.Fatalf("step %v missing", s)
		}
		if at < prev-2*time.Millisecond {
			t.Fatalf("step %v at %v before previous %v", s, at, prev)
		}
		prev = at
	}
	if tb.Hazard.Triggers != 1 {
		t.Fatalf("hazard triggered %d times", tb.Hazard.Triggers)
	}
}

func TestScenarioLatencyBands(t *testing.T) {
	_, res := runScenario(t, 102, false)
	iv := res.Intervals
	// The paper's bands, generously widened.
	if ms := iv.DetectionToSend.Milliseconds(); ms < 10 || ms > 50 {
		t.Fatalf("detection→send %v", iv.DetectionToSend)
	}
	if iv.SendToReceive <= 0 || iv.SendToReceive > 5*time.Millisecond {
		t.Fatalf("send→receive %v", iv.SendToReceive)
	}
	if ms := iv.ReceiveToAction.Milliseconds(); ms < 5 || ms > 60 {
		t.Fatalf("receive→action %v", iv.ReceiveToAction)
	}
	if iv.Total >= 100*time.Millisecond {
		t.Fatalf("total %v breaches the paper's 100 ms bound", iv.Total)
	}
}

func TestScenarioBrakingDistance(t *testing.T) {
	_, res := runScenario(t, 103, false)
	if res.BrakingDistance < 0.15 || res.BrakingDistance > 0.6 {
		t.Fatalf("braking distance %.3f m", res.BrakingDistance)
	}
	// Less than one vehicle length, as the paper highlights.
	if res.BrakingDistance >= 0.53 {
		t.Fatalf("braking distance %.3f m exceeds the vehicle length", res.BrakingDistance)
	}
	if res.ApproachSpeed < 1.0 || res.ApproachSpeed > 2.0 {
		t.Fatalf("approach speed %.2f", res.ApproachSpeed)
	}
}

func TestScenarioVideoAnalysis(t *testing.T) {
	_, res := runScenario(t, 104, false)
	if !res.Video.Valid {
		t.Fatal("video analysis invalid")
	}
	if res.Video.CrossingFrameDistance > 1.52 {
		t.Fatalf("crossing frame distance %.2f above the threshold", res.Video.CrossingFrameDistance)
	}
	if res.Video.DetectionToStop <= 0 || res.Video.DetectionToStop > 2*time.Second {
		t.Fatalf("detection-to-stop %v", res.Video.DetectionToStop)
	}
	// Quantised to the recording rate.
	if res.Video.DetectionToStop%VideoFramePeriod != 0 {
		t.Fatalf("video reading %v not frame-quantised", res.Video.DetectionToStop)
	}
}

func TestScenarioDeterministic(t *testing.T) {
	_, res1 := runScenario(t, 105, false)
	_, res2 := runScenario(t, 105, false)
	if res1.Intervals != res2.Intervals {
		t.Fatalf("same seed, different intervals: %+v vs %+v", res1.Intervals, res2.Intervals)
	}
	if res1.BrakingDistance != res2.BrakingDistance {
		t.Fatal("same seed, different braking distance")
	}
}

func TestScenarioSeedsDiffer(t *testing.T) {
	_, res1 := runScenario(t, 106, false)
	_, res2 := runScenario(t, 107, false)
	if res1.Intervals.Total == res2.Intervals.Total {
		t.Fatal("different seeds produced identical totals (suspicious)")
	}
}

// TestEveryRadioKindCarriesBackgroundLoad runs the scenario on each
// radio backend with ten CAM-chattering background stations: the chain
// must complete, every station must attach to the chosen backend, and
// the load must show in the backend-agnostic frame counter.
func TestEveryRadioKindCarriesBackgroundLoad(t *testing.T) {
	rows := map[RadioKind]struct {
		backend string
		// minLink bounds the 3→4 link term from below: the 5G Uu
		// path contributes several ms where ITS-G5 contributes ~1.5.
		minLink time.Duration
	}{
		RadioITSG5:   {"*radio.Medium", 0},
		RadioCV2XPC5: {"*radio.PC5Medium", 0},
		RadioCV2XUu:  {"*radio.CellularLink", 3 * time.Millisecond},
	}
	for _, kind := range RadioKinds() {
		want := rows[kind]
		t.Run(string(kind), func(t *testing.T) {
			cfg := Config{Seed: 140, Radio: kind, BackgroundVehicles: 10}
			vcfg := cfg.withDefaults().Vehicle
			vcfg.UseVision = false
			cfg.Vehicle = vcfg
			tb, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%T", tb.Backend); got != want.backend {
				t.Fatalf("backend %s, want %s", got, want.backend)
			}
			res, err := tb.RunScenario(30 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stopped || !res.Run.Complete() {
				t.Fatal("scenario under background load did not complete")
			}
			if res.Intervals.SendToReceive < want.minLink {
				t.Fatalf("link latency %v below %v", res.Intervals.SendToReceive, want.minLink)
			}
			// 10 chattering stations at ~10 Hz for ~4.5 s: hundreds of frames.
			if sent := tb.Sink.Metrics.Counter("radio_frames_sent_total").Value(); sent < 200 {
				t.Fatalf("background load generated only %d frames", sent)
			}
		})
	}
}

func TestCellularRadioMode(t *testing.T) {
	cfg := Config{Seed: 108, Radio: RadioCV2XUu, CellularProfile: radio.Profile5GURLLC()}
	base := cfg.withDefaults()
	vcfg := base.Vehicle
	vcfg.UseVision = false
	cfg.Vehicle = vcfg
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Backend.(*radio.Medium); ok {
		t.Fatal("cellular mode still created an 802.11p medium")
	}
	res, err := tb.RunScenario(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || !res.Run.Complete() {
		t.Fatal("cellular scenario did not complete")
	}
	// The 5G link contributes several ms where ITS-G5 contributes ~1.5.
	if res.Intervals.SendToReceive < 3*time.Millisecond {
		t.Fatalf("cellular link latency %v implausibly low", res.Intervals.SendToReceive)
	}
}

func TestCellularModeIgnoresBackgroundVehicles(t *testing.T) {
	// Background stations attach to the cellular link like every other
	// station; a background config must not stop the scenario completing.
	cfg := Config{Seed: 140, Radio: RadioCV2XUu, BackgroundVehicles: 10}
	base := cfg.withDefaults()
	vcfg := base.Vehicle
	vcfg.UseVision = false
	cfg.Vehicle = vcfg
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.RunScenario(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("cellular scenario with background config did not complete")
	}
}

// TestParseRadio pins the -radio flag surface.
func TestParseRadio(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want RadioKind
	}{
		{"", RadioITSG5},
		{"its-g5", RadioITSG5},
		{"cv2x-pc5", RadioCV2XPC5},
		{"cv2x-uu", RadioCV2XUu},
	} {
		got, err := ParseRadio(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseRadio(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseRadio("wimax"); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := New(Config{Seed: 1, Radio: "wimax"}); err == nil {
		t.Fatal("testbed built on an unknown radio kind")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Seed: 1}.withDefaults()
	if cfg.Layout.Line == nil {
		t.Fatal("layout default")
	}
	if cfg.CameraFramePeriod != 250*time.Millisecond {
		t.Fatal("4 FPS default")
	}
	if cfg.Hazard.ActionPointDistance != 1.52 {
		t.Fatal("action point default")
	}
	if cfg.Radio != RadioITSG5 {
		t.Fatal("radio default")
	}
}

func TestFullVisionScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("vision pipeline is CPU heavy")
	}
	_, res := runScenario(t, 109, true)
	if !res.Stopped || !res.Run.Complete() {
		t.Fatal("vision scenario did not complete")
	}
}

func TestBackgroundVehiclesLoadTheChannel(t *testing.T) {
	cfg := Config{Seed: 141, BackgroundVehicles: 10}
	base := cfg.withDefaults()
	vcfg := base.Vehicle
	vcfg.UseVision = false
	cfg.Vehicle = vcfg
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.RunScenario(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("scenario under channel load did not complete")
	}
	// 10 chattering stations at ~10 Hz for ~4.5 s: hundreds of frames.
	if sent := tb.Sink.Metrics.Counter("radio_frames_sent_total").Value(); sent < 200 {
		t.Fatalf("background load generated only %d frames", sent)
	}
}

func TestDENMRepetitionPlumbedThrough(t *testing.T) {
	cfg := Config{Seed: 142, DENMRepetitionInterval: 100 * time.Millisecond}
	base := cfg.withDefaults()
	vcfg := base.Vehicle
	vcfg.UseVision = false
	cfg.Vehicle = vcfg
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.RunScenario(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("scenario did not complete")
	}
	// The RSU keeps repeating for the 2 s default window even after
	// the vehicle stopped: well more than one transmission.
	if tb.RSU.DEN.Transmitted < 3 {
		t.Fatalf("RSU transmitted %d DENMs, repetition not active", tb.RSU.DEN.Transmitted)
	}
	// The OBU suppressed the repeats: exactly one delivery.
	if tb.OBU.DeliveredDENMs != 1 {
		t.Fatalf("OBU delivered %d DENMs, want 1", tb.OBU.DeliveredDENMs)
	}
}

// traceScenario runs one ground-truth scenario with tracing enabled.
func traceScenario(t *testing.T, seed int64) (*Testbed, *Result) {
	t.Helper()
	cfg := Config{Seed: seed}
	cfg.Layout = cfg.withDefaults().Layout
	vcfg := cfg.withDefaults().Vehicle
	vcfg.UseVision = false
	cfg.Vehicle = vcfg
	cfg.Sink.Tracer = tracing.New()
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.RunScenario(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return tb, res
}

func TestTraceChainConnected(t *testing.T) {
	_, res := traceScenario(t, 101)
	if !res.Stopped || !res.Run.Complete() {
		t.Fatal("scenario did not complete")
	}
	if len(res.Spans.Spans) == 0 {
		t.Fatal("tracing enabled but no spans recorded")
	}

	chains := res.Spans.FilterTraces(func(root tracing.SpanRecord) bool {
		return root.Name == "denm.chain"
	})
	roots := 0
	var root tracing.SpanRecord
	byID := make(map[uint64]tracing.SpanRecord)
	for _, rec := range chains.Spans {
		byID[rec.ID] = rec
		if rec.ID == rec.Trace {
			roots++
			root = rec
		}
	}
	if roots != 1 {
		t.Fatalf("want exactly one denm.chain root, got %d", roots)
	}

	// Every span of the chain trace links back to the root.
	stations := make(map[string]bool)
	names := make(map[string]bool)
	for _, rec := range chains.Spans {
		names[rec.Name] = true
		stations[rec.Station] = true
		cur := rec
		for cur.Parent != 0 {
			parent, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %d (%s) has dangling parent %d", rec.ID, rec.Name, cur.Parent)
			}
			cur = parent
		}
		if cur.ID != root.ID {
			t.Fatalf("span %d (%s) not connected to the chain root", rec.ID, rec.Name)
		}
	}
	// The single trace crosses both stations and every layer of the
	// Fig. 4 chain.
	if !stations["rsu"] || !stations["obu"] {
		t.Fatalf("chain does not cross both stations: %v", stations)
	}
	for _, want := range []string{
		"openc2x.trigger_denm", "den.trigger", "den.transmit", "stack.tx",
		"geonet.send", "radio.access", "radio.air", "geonet.receive",
		"stack.rx", "den.receive", "openc2x.mailbox",
		"openc2x.poll_delivery", "vehicle.actuation",
	} {
		if !names[want] {
			t.Fatalf("chain missing span %q (have %v)", want, names)
		}
	}

	// The root span's extent IS the Table II total delay (steps 2->5).
	if !root.Ended {
		t.Fatal("chain root never ended")
	}
	if got := root.End - root.Start; got != res.Intervals.Total {
		t.Fatalf("root extent %v != Table II total %v", got, res.Intervals.Total)
	}
}

func TestTracingDisabledByDefault(t *testing.T) {
	_, res := runScenario(t, 101, false)
	if len(res.Spans.Spans) != 0 {
		t.Fatalf("tracing off should record nothing, got %d spans", len(res.Spans.Spans))
	}
}
