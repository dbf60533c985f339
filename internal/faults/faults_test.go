package faults

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"itsbed/internal/flight"
	"itsbed/internal/metrics"
	"itsbed/internal/sim"
	"itsbed/internal/trace"
	"itsbed/internal/tracing"
)

// planJSON renders p as the JSON a plan file holds.
func planJSON(p Plan) []byte {
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		panic(err) // plan types always marshal
	}
	return out
}

func TestDurationJSON(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{`"250ms"`, 250 * time.Millisecond},
		{`"1.5s"`, 1500 * time.Millisecond},
		{`300`, 300 * time.Millisecond},
		{`0.5`, 500 * time.Microsecond},
	}
	for _, c := range cases {
		var d Duration
		if err := d.UnmarshalJSON([]byte(c.in)); err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if d.Std() != c.want {
			t.Fatalf("%s parsed to %v, want %v", c.in, d.Std(), c.want)
		}
	}
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"not-a-duration"`)); err == nil {
		t.Fatal("garbage duration accepted")
	}
}

func TestWindowContains(t *testing.T) {
	w := Window{Start: D(time.Second), End: D(2 * time.Second)}
	if w.Contains(999 * time.Millisecond) {
		t.Fatal("contains before start")
	}
	if !w.Contains(time.Second) {
		t.Fatal("start is inclusive")
	}
	if w.Contains(2 * time.Second) {
		t.Fatal("end is exclusive")
	}
	open := Window{Start: D(time.Second)}
	if !open.Contains(time.Hour) {
		t.Fatal("zero end must mean open-ended")
	}
	// No windows at all means always active.
	if !activeIn(nil, 5*time.Second) {
		t.Fatal("empty window list must be always-active")
	}
}

func TestPlanEmpty(t *testing.T) {
	if !(Plan{}).Empty() {
		t.Fatal("zero plan not empty")
	}
	for name, p := range map[string]Plan{
		"blackout": {Blackouts: []Window{{}}},
		"noise":    {Noise: []NoiseBurst{{ExtraDB: 3}}},
		"link":     {Links: []LinkFault{{}}},
		"camera":   {Camera: CameraFault{FrameDropProb: 0.1}},
		"http":     {HTTP: HTTPFaults{Poll: PathFault{ErrorProb: 0.1}}},
		"crash":    {Crashes: []NodeCrash{{Node: NodeRSU}}},
	} {
		if p.Empty() {
			t.Fatalf("%s plan reported empty", name)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := map[string]Plan{
		"negative window":  {Blackouts: []Window{{Start: -1}}},
		"inverted window":  {Blackouts: []Window{{Start: D(2 * time.Second), End: D(time.Second)}}},
		"prob above one":   {Links: []LinkFault{{LossBad: 1.5}}},
		"prob below zero":  {Camera: CameraFault{FrameDropProb: -0.1}},
		"http sum above 1": {HTTP: HTTPFaults{Trigger: PathFault{TimeoutProb: 0.6, ErrorProb: 0.6}}},
		"unknown node":     {Crashes: []NodeCrash{{Node: "edge"}}},
		"negative crash":   {Crashes: []NodeCrash{{Node: NodeOBU, At: -1}}},
	}
	for name, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted %+v", name, p)
		}
	}
}

func TestParsePlanRejectsUnknownFields(t *testing.T) {
	if _, err := ParsePlan([]byte(`{"name":"x","blackots":[{"start":"1s"}]}`)); err == nil {
		t.Fatal("typo'd field accepted")
	}
}

func TestBuiltinsValidateAndRoundTrip(t *testing.T) {
	names := Builtins()
	if len(names) == 0 {
		t.Fatal("no builtin plans")
	}
	if !reflect.DeepEqual(names, sortedCopy(names)) {
		t.Fatal("Builtins not sorted")
	}
	for _, name := range names {
		p, ok := BuiltinPlan(name)
		if !ok {
			t.Fatalf("builtin %q missing", name)
		}
		if p.Empty() {
			t.Fatalf("builtin %q is empty", name)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("builtin %q invalid: %v", name, err)
		}
		back, err := ParsePlan(planJSON(p))
		if err != nil {
			t.Fatalf("builtin %q does not round-trip: %v", name, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("builtin %q changed across JSON round-trip:\n%+v\n%+v", name, back, p)
		}
	}
	if _, ok := BuiltinPlan("no-such-plan"); ok {
		t.Fatal("unknown builtin resolved")
	}
}

func sortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestInjectorDeterministic replays the same plan against two kernels
// with the same seed and asserts every fault decision matches —
// including when one injector carries metrics and tracing and the
// other does not (observability must never consume randomness).
func TestInjectorDeterministic(t *testing.T) {
	plan, _ := BuiltinPlan("chaos")
	type decisions struct {
		blackout []bool
		noise    []float64
		drops    []string
		camera   []bool
		dets     []bool
		trigger  []Verdict
		poll     []Verdict
	}
	sample := func(sink trace.Sink) decisions {
		k := sim.NewKernel(7)
		inj := NewInjector(k, plan, sink)
		var d decisions
		for i := 0; i < 400; i++ {
			now := time.Duration(i) * 10 * time.Millisecond
			d.blackout = append(d.blackout, inj.BlackoutAt(now))
			d.noise = append(d.noise, inj.ExtraNoiseDB(now))
			reason, dropped := inj.LinkDrop(now, "rsu", "obu")
			if !dropped {
				reason = ""
			}
			d.drops = append(d.drops, reason)
			d.camera = append(d.camera, inj.DropCameraFrame(now))
			d.dets = append(d.dets, inj.DropDetection(now))
			d.trigger = append(d.trigger, inj.TriggerVerdict(now))
			d.poll = append(d.poll, inj.PollVerdict(now))
		}
		return d
	}
	plain := sample(trace.Sink{})
	observed := sample(trace.Sink{Metrics: metrics.NewRegistry(), Tracer: tracing.New(), Flight: flight.NewRecorder(0)})
	if !reflect.DeepEqual(plain, observed) {
		t.Fatal("fault decisions depend on metrics/tracing/flight wiring")
	}
	again := sample(trace.Sink{})
	if !reflect.DeepEqual(plain, again) {
		t.Fatal("fault decisions not reproducible for the same seed")
	}
}

// TestGilbertElliottBurstiness drives a degenerate chain that can only
// drop in the bad state and checks drops arrive in bursts with the
// matching reason, and that links not matching From/To are untouched.
func TestGilbertElliottBurstiness(t *testing.T) {
	plan := Plan{
		Name: "ge",
		Links: []LinkFault{{
			From: "rsu", To: "obu",
			PGoodBad: 0.2, PBadGood: 0.3,
			LossGood: 0, LossBad: 1,
		}},
	}
	k := sim.NewKernel(11)
	inj := NewInjector(k, plan, trace.Sink{})
	var drops, runLen, runs int
	inBurst := false
	for i := 0; i < 2000; i++ {
		now := time.Duration(i) * time.Millisecond
		if reason, dropped := inj.LinkDrop(now, "rsu", "obu"); dropped {
			if reason != "fault_burst_loss" {
				t.Fatalf("bad-state drop tagged %q", reason)
			}
			drops++
			if !inBurst {
				runs++
				inBurst = true
			}
			runLen++
		} else {
			inBurst = false
		}
		// The reverse direction does not match the fault.
		if _, dropped := inj.LinkDrop(now, "obu", "rsu"); dropped {
			t.Fatal("unmatched link dropped a frame")
		}
	}
	if drops == 0 || runs == 0 {
		t.Fatal("degenerate bad-state chain never dropped")
	}
	// With p(bad→good)=0.3 the mean burst length is ~3.3 frames; any
	// genuine burst process must average well above 1 drop per burst.
	if avg := float64(runLen) / float64(runs); avg < 1.5 {
		t.Fatalf("drops not bursty: %d drops in %d runs (avg %.2f)", drops, runs, avg)
	}
	if inj.LinkDrops != uint64(drops) {
		t.Fatalf("LinkDrops counter %d, want %d", inj.LinkDrops, drops)
	}
}

// TestPathVerdictDrawsNothingWhenIdle pins the determinism contract:
// a path with zero probabilities must return OK without consuming any
// randomness, so adding an idle HTTP fault section cannot shift the
// draws of other streams.
func TestPathVerdictDrawsNothingWhenIdle(t *testing.T) {
	plan := Plan{Name: "idle-http", Blackouts: []Window{{Start: D(time.Hour)}}}
	k := sim.NewKernel(3)
	inj := NewInjector(k, plan, trace.Sink{})
	before := k.Rand("faults.http").Uint64()
	for i := 0; i < 50; i++ {
		if v := inj.TriggerVerdict(time.Duration(i) * time.Millisecond); v != VerdictOK {
			t.Fatalf("idle trigger verdict %v", v)
		}
		if v := inj.PollVerdict(time.Duration(i) * time.Millisecond); v != VerdictOK {
			t.Fatalf("idle poll verdict %v", v)
		}
	}
	k2 := sim.NewKernel(3)
	if got := k2.Rand("faults.http").Uint64(); got != before {
		t.Fatalf("stream seeding not reproducible: %d vs %d", got, before)
	}
}

// TestScheduleCrashes replays the crash plan on the sim clock.
func TestScheduleCrashes(t *testing.T) {
	plan := Plan{
		Name: "crashes",
		Crashes: []NodeCrash{
			{Node: NodeRSU, At: D(time.Second), RestartAfter: D(500 * time.Millisecond)},
			{Node: NodeOBU, At: D(2 * time.Second)}, // never restarts
		},
	}
	k := sim.NewKernel(5)
	inj := NewInjector(k, plan, trace.Sink{})
	var events []string
	inj.ScheduleCrashes(
		func(node string) { events = append(events, "crash:"+node+"@"+k.Now().String()) },
		func(node string) { events = append(events, "restart:"+node+"@"+k.Now().String()) },
	)
	k.Run(5 * time.Second)
	want := []string{"crash:rsu@1s", "restart:rsu@1.5s", "crash:obu@2s"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("crash schedule %v, want %v", events, want)
	}
	if inj.Crashes != 2 || inj.Restarts != 1 {
		t.Fatalf("crash counters %d/%d, want 2/1", inj.Crashes, inj.Restarts)
	}
}

// TestInjectorMetrics checks the fault_* counter families register and
// count under a registry.
func TestInjectorMetrics(t *testing.T) {
	plan := Plan{
		Name:      "metrics",
		Blackouts: []Window{{Start: 0}},
		Camera:    CameraFault{FrameDropProb: 1, DetectionDropProb: 1},
		HTTP:      HTTPFaults{Trigger: PathFault{ErrorProb: 1}},
	}
	k := sim.NewKernel(9)
	reg := metrics.NewRegistry()
	inj := NewInjector(k, plan, trace.Sink{Metrics: reg})
	inj.BlackoutAt(0)
	inj.DropCameraFrame(0)
	inj.DropDetection(0)
	if v := inj.TriggerVerdict(0); v != VerdictError {
		t.Fatalf("certain error path returned %v", v)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"fault_radio_blackout_frames_total",
		"fault_camera_frames_dropped_total",
		"fault_camera_detections_dropped_total",
	} {
		c, ok := snap.FindCounter(name)
		if !ok || c.Value != 1 {
			t.Fatalf("%s missing or not 1", name)
		}
	}
	var sawTriggerError bool
	for _, c := range snap.Counters {
		if c.Name != "fault_http_requests_total" {
			continue
		}
		var path, verdict string
		for _, l := range c.Labels {
			switch l.Key {
			case "path":
				path = l.Value
			case "verdict":
				verdict = l.Value
			}
		}
		if path == "trigger" && verdict == "error" && c.Value == 1 {
			sawTriggerError = true
		}
	}
	if !sawTriggerError {
		t.Fatalf("fault_http_requests_total{path=trigger,verdict=error} not counted:\n%s",
			strings.TrimSpace(snap.Format()))
	}
}
