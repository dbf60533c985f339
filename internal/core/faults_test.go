package core

import (
	"reflect"
	"testing"
	"time"

	"itsbed/internal/faults"
	"itsbed/internal/vehicle"
)

// faultScenario runs one ground-truth-follower scenario with the given
// fault plan and watchdog setting.
func faultScenario(t *testing.T, seed int64, plan faults.Plan, watchdog bool) *Result {
	t.Helper()
	cfg := Config{Seed: seed}
	cfg.Layout = cfg.withDefaults().Layout
	vcfg := cfg.withDefaults().Vehicle
	vcfg.UseVision = false
	vcfg.Watchdog = watchdog
	cfg.Vehicle = vcfg
	cfg.Faults = &plan
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.RunScenario(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBlackoutFlipsMissToFailSafeStop is the acceptance scenario: a
// radio blackout opening before the warning can cross the air gap
// makes the vehicle run through the hazard ("miss") — unless the
// network watchdog is armed, in which case stale connectivity degrades
// the vehicle into the autonomous TTC brake ("fail-safe stop").
func TestBlackoutFlipsMissToFailSafeStop(t *testing.T) {
	plan, ok := faults.BuiltinPlan("blackout")
	if !ok {
		t.Fatal("builtin blackout plan missing")
	}

	off := faultScenario(t, 101, plan, false)
	if off.Stopped {
		t.Fatalf("watchdog off: vehicle stopped (cause %q) despite the blackout", off.StopCause)
	}
	if off.Outcome != OutcomeMiss {
		t.Fatalf("watchdog off: outcome %v, want miss", off.Outcome)
	}

	on := faultScenario(t, 101, plan, true)
	if on.Outcome != OutcomeFailSafeStop {
		t.Fatalf("watchdog on: outcome %v (cause %q), want failsafe-stop", on.Outcome, on.StopCause)
	}
	if on.StopCause != vehicle.StopCauseWatchdog {
		t.Fatalf("watchdog on: stop cause %q, want %q", on.StopCause, vehicle.StopCauseWatchdog)
	}
	if on.Collision || on.FinalCameraDistance <= 0.15 {
		t.Fatalf("watchdog on: fail-safe stop still collided (final distance %.3f m)", on.FinalCameraDistance)
	}
	if c, ok := on.Metrics.FindCounter("fault_radio_blackout_frames_total"); !ok || c.Value == 0 {
		t.Fatal("blackout frames counter missing or zero")
	}
	if c, ok := on.Metrics.FindCounter("fault_watchdog_trips_total"); !ok || c.Value != 1 {
		t.Fatal("watchdog trip counter missing or not 1")
	}
}

// TestRSUCrashRestartRecovers crashes the RSU early and restarts it
// before the hazard fires: the warning chain must still complete (the
// crash/restart machinery must not wedge the station), with the
// crash and restart accounted in the fault counters.
func TestRSUCrashRestartRecovers(t *testing.T) {
	plan, ok := faults.BuiltinPlan("crash-rsu")
	if !ok {
		t.Fatal("builtin crash-rsu plan missing")
	}
	res := faultScenario(t, 101, plan, false)
	if res.Outcome != OutcomeWarnedStop {
		t.Fatalf("outcome %v (cause %q), want warned-stop after RSU restart", res.Outcome, res.StopCause)
	}
	if c, ok := res.Metrics.FindCounter("fault_node_crashes_total"); !ok || c.Value != 1 {
		t.Fatal("crash counter missing or not 1")
	}
	if c, ok := res.Metrics.FindCounter("fault_node_restarts_total"); !ok || c.Value != 1 {
		t.Fatal("restart counter missing or not 1")
	}
}

// TestEmptyFaultPlanIsNoOp pins the injection-determinism contract: a
// present-but-empty plan must build no injector and leave the run —
// timings, metrics, everything — bit-identical to the fault-free
// baseline.
func TestEmptyFaultPlanIsNoOp(t *testing.T) {
	_, base := runScenario(t, 101, false)

	cfg := Config{Seed: 101}
	cfg.Layout = cfg.withDefaults().Layout
	vcfg := cfg.withDefaults().Vehicle
	vcfg.UseVision = false
	cfg.Vehicle = vcfg
	cfg.Faults = &faults.Plan{}
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Injector != nil {
		t.Fatal("empty plan built an injector")
	}
	res, err := tb.RunScenario(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Intervals != base.Intervals {
		t.Fatalf("intervals diverged: %+v vs %+v", res.Intervals, base.Intervals)
	}
	if res.FinalCameraDistance != base.FinalCameraDistance {
		t.Fatalf("final distance diverged: %v vs %v", res.FinalCameraDistance, base.FinalCameraDistance)
	}
	if !reflect.DeepEqual(res.Metrics, base.Metrics) {
		t.Fatal("metrics snapshot diverged from the fault-free baseline")
	}
}
