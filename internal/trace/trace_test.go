package trace

import (
	"testing"
	"time"
)

func TestStampFirstWins(t *testing.T) {
	r := NewRun()
	r.Stamp(StepDetection, time.Second)
	r.Stamp(StepDetection, 2*time.Second)
	got, ok := r.At(StepDetection)
	if !ok || got != time.Second {
		t.Fatalf("At=%v ok=%v", got, ok)
	}
}

func TestIntervalRequiresBothSteps(t *testing.T) {
	r := NewRun()
	r.Stamp(StepDetection, time.Second)
	if _, err := r.Interval(StepDetection, StepRSUSend); err == nil {
		t.Fatal("interval with missing endpoint computed")
	}
	if _, err := r.Interval(StepHalt, StepDetection); err == nil {
		t.Fatal("interval with missing start computed")
	}
}

func TestTableIIIntervals(t *testing.T) {
	r := NewRun()
	base := 3 * time.Second
	r.Stamp(StepDetection, base)
	r.Stamp(StepRSUSend, base+27*time.Millisecond)
	r.Stamp(StepOBUReceive, base+29*time.Millisecond)
	r.Stamp(StepActuatorCommand, base+58*time.Millisecond)
	if !r.Complete() {
		t.Fatal("run with all four steps not complete")
	}
	iv, err := r.TableIIIntervals()
	if err != nil {
		t.Fatal(err)
	}
	if iv.DetectionToSend != 27*time.Millisecond {
		t.Fatalf("2→3 %v", iv.DetectionToSend)
	}
	if iv.SendToReceive != 2*time.Millisecond {
		t.Fatalf("3→4 %v", iv.SendToReceive)
	}
	if iv.ReceiveToAction != 29*time.Millisecond {
		t.Fatalf("4→5 %v", iv.ReceiveToAction)
	}
	if iv.Total != 58*time.Millisecond {
		t.Fatalf("total %v", iv.Total)
	}
}

func TestIncomplete(t *testing.T) {
	r := NewRun()
	r.Stamp(StepDetection, 0)
	if r.Complete() {
		t.Fatal("partial run complete")
	}
	if _, err := r.TableIIIntervals(); err == nil {
		t.Fatal("intervals from a partial run")
	}
}

func TestMetrics(t *testing.T) {
	r := NewRun()
	r.SetMetric("braking_distance_m", 0.36)
	v, ok := r.Metric("braking_distance_m")
	if !ok || v != 0.36 {
		t.Fatal("metric")
	}
	if _, ok := r.Metric("missing"); ok {
		t.Fatal("phantom metric")
	}
}

func TestStepStrings(t *testing.T) {
	for s := StepActionPoint; s <= StepHalt; s++ {
		if s.String() == "" {
			t.Fatalf("step %d has no name", s)
		}
	}
	if Step(99).String() != "step(99)" {
		t.Fatal("unknown step string")
	}
}

func TestStamped(t *testing.T) {
	r := NewRun()
	if r.Stamped(StepHalt) {
		t.Fatal("unstamped step reported")
	}
	r.Stamp(StepHalt, time.Minute)
	if !r.Stamped(StepHalt) {
		t.Fatal("stamped step missing")
	}
}

func TestZeroValueRunUsable(t *testing.T) {
	// A zero-value Run (not built with NewRun) must not panic: the
	// write paths allocate their maps lazily.
	var r Run
	r.Stamp(StepDetection, time.Second)
	r.SetMetric("braking_distance_m", 0.36)
	if at, ok := r.At(StepDetection); !ok || at != time.Second {
		t.Fatalf("stamp on zero-value run lost: %v %v", at, ok)
	}
	if v, ok := r.Metric("braking_distance_m"); !ok || v != 0.36 {
		t.Fatalf("metric on zero-value run lost: %v %v", v, ok)
	}
	// Read paths on a fresh zero value are safe too.
	var empty Run
	if empty.Stamped(StepHalt) || empty.Complete() {
		t.Fatal("empty zero-value run claims stamps")
	}
	if _, ok := empty.Metric("x"); ok {
		t.Fatal("empty zero-value run claims metrics")
	}
}
