// Package trace records the per-run step timestamps of the paper's
// Fig. 4 sequence and computes the interval table of Table II:
//
//	Step 1 — vehicle reaches the Action Point (ground truth / video)
//	Step 2 — YOLO outputs the identification at the Action Point
//	Step 3 — the RSU sends the DENM
//	Step 4 — the OBU receives the DENM
//	Step 5 — the stop command is sent to the physical actuators
//	Step 6 — the vehicle comes to a halt (ground truth / video)
//
// Steps 2–5 are stamped with each platform's NTP-disciplined clock,
// as in the paper; steps 1 and 6 come from the experimenter's
// out-of-band observation.
package trace

import (
	"fmt"
	"time"
)

// Step identifies one point of the chain of action.
type Step int

// The six steps of the paper's measurement chain.
const (
	StepActionPoint Step = iota + 1
	StepDetection
	StepRSUSend
	StepOBUReceive
	StepActuatorCommand
	StepHalt
)

// String implements fmt.Stringer.
func (s Step) String() string {
	switch s {
	case StepActionPoint:
		return "vehicle at action point"
	case StepDetection:
		return "YOLO detection output"
	case StepRSUSend:
		return "RSU sends DENM"
	case StepOBUReceive:
		return "OBU receives DENM"
	case StepActuatorCommand:
		return "actuator command sent"
	case StepHalt:
		return "vehicle halted"
	default:
		return fmt.Sprintf("step(%d)", int(s))
	}
}

// Run records the timestamps of one experiment run.
type Run struct {
	stamps map[Step]time.Duration
	// extra free-form measurements (e.g. braking distance).
	metrics map[string]float64
}

// NewRun returns an empty record.
func NewRun() *Run {
	return &Run{
		stamps:  make(map[Step]time.Duration),
		metrics: make(map[string]float64),
	}
}

// Stamp records the first occurrence of a step; later stamps of the
// same step are ignored (the chain fires once per run). A zero-value
// Run is usable: the maps are allocated on first write.
func (r *Run) Stamp(s Step, t time.Duration) {
	if r.stamps == nil {
		r.stamps = make(map[Step]time.Duration)
	}
	if _, ok := r.stamps[s]; !ok {
		r.stamps[s] = t
	}
}

// Stamped reports whether the step was recorded.
func (r *Run) Stamped(s Step) bool {
	_, ok := r.stamps[s]
	return ok
}

// At returns the recorded time of a step.
func (r *Run) At(s Step) (time.Duration, bool) {
	t, ok := r.stamps[s]
	return t, ok
}

// SetMetric records a named scalar (e.g. "braking_distance_m").
func (r *Run) SetMetric(name string, v float64) {
	if r.metrics == nil {
		r.metrics = make(map[string]float64)
	}
	r.metrics[name] = v
}

// Metric returns a named scalar.
func (r *Run) Metric(name string) (float64, bool) {
	v, ok := r.metrics[name]
	return v, ok
}

// Interval returns the elapsed time between two recorded steps.
func (r *Run) Interval(from, to Step) (time.Duration, error) {
	a, ok := r.stamps[from]
	if !ok {
		return 0, fmt.Errorf("trace: %v not recorded", from)
	}
	b, ok := r.stamps[to]
	if !ok {
		return 0, fmt.Errorf("trace: %v not recorded", to)
	}
	return b - a, nil
}

// Complete reports whether all steps of Table II (2..5) are present.
func (r *Run) Complete() bool {
	for _, s := range []Step{StepDetection, StepRSUSend, StepOBUReceive, StepActuatorCommand} {
		if !r.Stamped(s) {
			return false
		}
	}
	return true
}

// Intervals is the Table II row set for one run.
type Intervals struct {
	DetectionToSend time.Duration // step 2 → 3
	SendToReceive   time.Duration // step 3 → 4
	ReceiveToAction time.Duration // step 4 → 5
	Total           time.Duration // step 2 → 5
}

// TableIIIntervals extracts the paper's three intervals plus total.
func (r *Run) TableIIIntervals() (Intervals, error) {
	var iv Intervals
	var err error
	if iv.DetectionToSend, err = r.Interval(StepDetection, StepRSUSend); err != nil {
		return iv, err
	}
	if iv.SendToReceive, err = r.Interval(StepRSUSend, StepOBUReceive); err != nil {
		return iv, err
	}
	if iv.ReceiveToAction, err = r.Interval(StepOBUReceive, StepActuatorCommand); err != nil {
		return iv, err
	}
	if iv.Total, err = r.Interval(StepDetection, StepActuatorCommand); err != nil {
		return iv, err
	}
	return iv, nil
}
