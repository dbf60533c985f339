package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"itsbed/internal/faults"
)

func fastResilienceOpt(seed int64, runs int, plan string) ResilienceOptions {
	p, ok := faults.BuiltinPlan(plan)
	if !ok {
		panic("unknown builtin plan " + plan)
	}
	return ResilienceOptions{
		ScenarioOptions: ScenarioOptions{BaseSeed: seed, Runs: runs, Horizon: 30 * time.Second},
		Plan:            p,
	}
}

// TestResilienceBlackoutSweep pins the headline behavior: under a
// total blackout every run must end in a fail-safe stop (the watchdog
// is on), never a silent miss, and the report must carry the injected
// fault counters.
func TestResilienceBlackoutSweep(t *testing.T) {
	res, err := Resilience(fastResilienceOpt(42, 3, "blackout"))
	if err != nil {
		t.Fatal(err)
	}
	if res.FailSafeStops != 3 || res.Misses != 0 || res.WarnedStops != 0 {
		t.Fatalf("outcomes %d/%d/%d (warned/failsafe/miss), want 0/3/0",
			res.WarnedStops, res.FailSafeStops, res.Misses)
	}
	if res.MissRate != 0 {
		t.Fatalf("miss rate %v, want 0", res.MissRate)
	}
	if res.BaselineAvgTotal <= 0 {
		t.Fatal("baseline average missing")
	}
	for _, row := range res.Rows {
		if row.Outcome != "failsafe-stop" || row.StopCause != "watchdog" {
			t.Fatalf("run %d: outcome %q cause %q", row.Run, row.Outcome, row.StopCause)
		}
	}
	if c, ok := res.Metrics.FindCounter("fault_radio_blackout_frames_total"); !ok || c.Value == 0 {
		t.Fatal("merged metrics missing blackout frame counter")
	}
	if c, ok := res.Metrics.FindCounter("fault_watchdog_trips_total"); !ok || c.Value != 3 {
		t.Fatal("merged metrics missing the three watchdog trips")
	}
	out := res.Format()
	for _, want := range []string{
		`fault plan "blackout"`,
		"failsafe-stop",
		"miss rate 0.00",
		"fault_watchdog_trips_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestResilienceBlackboxDumpsDeterministicAcrossWorkers pins the
// black-box acceptance criterion: the post-mortem dumps of a faulted
// sweep — file set, JSONL bytes, ASCII timeline bytes — are identical
// for any worker count. The workers=8 sweep additionally runs with a
// Progress observer installed, proving the reporting hook cannot
// perturb the recorded event streams.
func TestResilienceBlackboxDumpsDeterministicAcrossWorkers(t *testing.T) {
	sweep := func(w int, progress func(done, total int)) map[string][]byte {
		t.Helper()
		dir := t.TempDir()
		opt := fastResilienceOpt(42, 3, "blackout")
		opt.Workers = w
		opt.Blackbox = dir
		opt.Progress = progress
		res, err := Resilience(opt)
		if err != nil {
			t.Fatal(err)
		}
		// Every blackout run injects faults, so every run dumps a
		// JSONL + timeline pair.
		if len(res.Dumps) != 6 {
			t.Fatalf("workers=%d: %d dump files, want 6: %v", w, len(res.Dumps), res.Dumps)
		}
		files := make(map[string][]byte, len(res.Dumps))
		for _, f := range res.Dumps {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			files[filepath.Base(f)] = data
		}
		return files
	}

	want := sweep(1, nil)
	tl, ok := want["run01_failsafe-stop.flight.txt"]
	if !ok {
		t.Fatalf("missing expected timeline dump; got %v", keys(want))
	}
	for _, marker := range []string{"flight recorder:", "reason=blackout", "watchdog", "actuation"} {
		if !strings.Contains(string(tl), marker) {
			t.Fatalf("post-mortem timeline missing %q:\n%s", marker, tl)
		}
	}

	var progressCalls int
	got := sweep(8, func(done, total int) { progressCalls++ })
	if progressCalls == 0 {
		t.Fatal("progress observer never invoked")
	}
	if len(got) != len(want) {
		t.Fatalf("dump sets differ: %v vs %v", keys(got), keys(want))
	}
	for name, data := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("workers=8 sweep missing dump %s", name)
		}
		if !bytes.Equal(g, data) {
			t.Fatalf("dump %s not byte-identical across workers", name)
		}
	}
}

// TestFlightPostMortemGolden pins the exact ASCII timeline of the
// blackout campaign's first run (itsbed resilience -faults blackout
// -seed 42 -runs 3 -vision=false -blackbox DIR). Any change to event
// kinds, timing, sequence allocation or timeline formatting shows up
// here as a diff; regenerate with
//
//	go test ./cmd/itsbed -run TestConformance -update
func TestFlightPostMortemGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/flight_smoke.golden")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := fastResilienceOpt(42, 3, "blackout")
	opt.Workers = 4
	opt.Blackbox = dir
	if _, err := Resilience(opt); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "run01_failsafe-stop.flight.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-mortem timeline drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestResilienceRejectsInvalidPlan ensures a bad plan fails fast
// instead of burning a sweep.
func TestResilienceRejectsInvalidPlan(t *testing.T) {
	opt := fastResilienceOpt(1, 2, "chaos")
	opt.Plan.Camera.FrameDropProb = 2
	if _, err := Resilience(opt); err == nil {
		t.Fatal("invalid plan accepted")
	}
}
