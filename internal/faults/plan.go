// Package faults implements the testbed's deterministic,
// scenario-scriptable fault-injection subsystem. A Plan declares what
// goes wrong and when — radio blackouts, interference bursts, per-link
// Gilbert–Elliott burst loss, camera frame drops and detection
// dropouts, OpenC2X HTTP timeouts/errors, and whole-node
// crash/restart — on the simulation clock. An Injector executes a plan
// against one testbed run: every random decision draws from named
// kernel streams, so the same seed and plan produce the same fault
// sequence on any machine and for any campaign worker count.
//
// Plans are plain Go values and load from JSON, so resilience
// campaigns can script scenarios without recompiling.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// Duration is a time.Duration that unmarshals from JSON as either a Go
// duration string ("250ms", "1.5s") or a bare number of milliseconds.
type Duration time.Duration

// D converts a time.Duration into a plan Duration.
func D(d time.Duration) Duration { return Duration(d) }

// Std returns the value as a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// MarshalJSON renders the duration as a Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "300ms" strings or numeric milliseconds.
func (d *Duration) UnmarshalJSON(data []byte) error {
	data = bytes.TrimSpace(data)
	if len(data) == 0 {
		return fmt.Errorf("faults: empty duration")
	}
	if data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("faults: duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ms float64
	if err := json.Unmarshal(data, &ms); err != nil {
		return err
	}
	*d = Duration(time.Duration(ms * float64(time.Millisecond)))
	return nil
}

// Window is a half-open activity interval [Start, End) on the
// simulation clock. A zero End means "until the end of the run".
type Window struct {
	Start Duration `json:"start"`
	End   Duration `json:"end,omitempty"`
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Duration) bool {
	if t < w.Start.Std() {
		return false
	}
	return w.End == 0 || t < w.End.Std()
}

// activeIn reports whether t falls in any window; an empty list means
// the fault is active for the whole run.
func activeIn(ws []Window, t time.Duration) bool {
	if len(ws) == 0 {
		return true
	}
	for _, w := range ws {
		if w.Contains(t) {
			return true
		}
	}
	return false
}

// NoiseBurst raises the effective noise floor of every receiver by
// ExtraDB inside the window (interference burst / jammer).
type NoiseBurst struct {
	Window
	ExtraDB float64 `json:"extra_db"`
}

// LinkFault applies a Gilbert–Elliott two-state loss process to frames
// on one directed radio link. The chain advances once per frame
// evaluated on the link: in the good state frames drop with LossGood
// (residual corruption), in the bad state with LossBad (burst loss).
// Empty From/To match any station, so a single entry can degrade the
// whole medium.
type LinkFault struct {
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// PGoodBad and PBadGood are the per-frame state-transition
	// probabilities good→bad and bad→good.
	PGoodBad float64 `json:"p_good_bad"`
	PBadGood float64 `json:"p_bad_good"`
	// LossGood and LossBad are the per-state frame-drop probabilities.
	LossGood float64  `json:"loss_good"`
	LossBad  float64  `json:"loss_bad"`
	Windows  []Window `json:"windows,omitempty"`
}

// matches reports whether the fault covers the directed link src→dst.
func (l LinkFault) matches(src, dst string) bool {
	return (l.From == "" || l.From == src) && (l.To == "" || l.To == dst)
}

// CameraFault drops edge-side perception output: whole camera frames
// (pipeline stall) with FrameDropProb, and individual detections
// inside surviving frames (YOLO dropout) with DetectionDropProb.
type CameraFault struct {
	FrameDropProb     float64  `json:"frame_drop_prob,omitempty"`
	DetectionDropProb float64  `json:"detection_drop_prob,omitempty"`
	Windows           []Window `json:"windows,omitempty"`
}

// PathFault injects failures on one OpenC2X HTTP API path: with
// TimeoutProb the request hangs until the client deadline, with
// ErrorProb it fails fast with a server error.
type PathFault struct {
	TimeoutProb float64  `json:"timeout_prob,omitempty"`
	ErrorProb   float64  `json:"error_prob,omitempty"`
	Windows     []Window `json:"windows,omitempty"`
}

// HTTPFaults bundles the per-path API fault processes.
type HTTPFaults struct {
	Trigger PathFault `json:"trigger,omitempty"`
	Poll    PathFault `json:"poll,omitempty"`
}

// Node names accepted in NodeCrash entries.
const (
	NodeRSU = "rsu"
	NodeOBU = "obu"
)

// NodeCrash kills a whole station process at At: cyclic services stop,
// inbound frames are ignored, and the OpenC2X mailbox is lost. When
// RestartAfter is positive the node comes back that much later with
// empty LDM and receiver state; zero keeps it down for the run.
type NodeCrash struct {
	Node         string   `json:"node"`
	At           Duration `json:"at"`
	RestartAfter Duration `json:"restart_after,omitempty"`
}

// Plan is one deterministic fault scenario.
type Plan struct {
	Name      string       `json:"name"`
	Blackouts []Window     `json:"blackouts,omitempty"`
	Noise     []NoiseBurst `json:"noise,omitempty"`
	Links     []LinkFault  `json:"links,omitempty"`
	Camera    CameraFault  `json:"camera,omitempty"`
	HTTP      HTTPFaults   `json:"http,omitempty"`
	Crashes   []NodeCrash  `json:"crashes,omitempty"`
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool {
	return len(p.Blackouts) == 0 && len(p.Noise) == 0 && len(p.Links) == 0 &&
		p.Camera.FrameDropProb == 0 && p.Camera.DetectionDropProb == 0 &&
		len(p.Crashes) == 0 &&
		p.HTTP.Trigger.TimeoutProb == 0 && p.HTTP.Trigger.ErrorProb == 0 &&
		p.HTTP.Poll.TimeoutProb == 0 && p.HTTP.Poll.ErrorProb == 0
}

// Validate checks probability ranges, window ordering and node names.
func (p Plan) Validate() error {
	checkWindows := func(what string, ws []Window) error {
		for i, w := range ws {
			if w.Start < 0 || w.End < 0 {
				return fmt.Errorf("faults: %s window %d: negative bound", what, i)
			}
			if w.End != 0 && w.End <= w.Start {
				return fmt.Errorf("faults: %s window %d: end %v not after start %v",
					what, i, w.End.Std(), w.Start.Std())
			}
		}
		return nil
	}
	checkProb := func(what string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("faults: %s probability %v outside [0,1]", what, v)
		}
		return nil
	}
	if err := checkWindows("blackout", p.Blackouts); err != nil {
		return err
	}
	for i, nb := range p.Noise {
		if err := checkWindows(fmt.Sprintf("noise[%d]", i), []Window{nb.Window}); err != nil {
			return err
		}
	}
	for i, l := range p.Links {
		for _, pv := range []struct {
			what string
			v    float64
		}{
			{"p_good_bad", l.PGoodBad}, {"p_bad_good", l.PBadGood},
			{"loss_good", l.LossGood}, {"loss_bad", l.LossBad},
		} {
			if err := checkProb(fmt.Sprintf("links[%d].%s", i, pv.what), pv.v); err != nil {
				return err
			}
		}
		if err := checkWindows(fmt.Sprintf("links[%d]", i), l.Windows); err != nil {
			return err
		}
	}
	if err := checkProb("camera.frame_drop_prob", p.Camera.FrameDropProb); err != nil {
		return err
	}
	if err := checkProb("camera.detection_drop_prob", p.Camera.DetectionDropProb); err != nil {
		return err
	}
	if err := checkWindows("camera", p.Camera.Windows); err != nil {
		return err
	}
	for _, path := range []struct {
		name string
		pf   PathFault
	}{{"trigger", p.HTTP.Trigger}, {"poll", p.HTTP.Poll}} {
		if err := checkProb("http."+path.name+".timeout_prob", path.pf.TimeoutProb); err != nil {
			return err
		}
		if err := checkProb("http."+path.name+".error_prob", path.pf.ErrorProb); err != nil {
			return err
		}
		if path.pf.TimeoutProb+path.pf.ErrorProb > 1 {
			return fmt.Errorf("faults: http.%s: timeout+error probability exceeds 1", path.name)
		}
		if err := checkWindows("http."+path.name, path.pf.Windows); err != nil {
			return err
		}
	}
	for i, c := range p.Crashes {
		if c.Node != NodeRSU && c.Node != NodeOBU {
			return fmt.Errorf("faults: crashes[%d]: unknown node %q (want %q or %q)",
				i, c.Node, NodeRSU, NodeOBU)
		}
		if c.At < 0 || c.RestartAfter < 0 {
			return fmt.Errorf("faults: crashes[%d]: negative time", i)
		}
	}
	return nil
}

// ParsePlan decodes and validates a JSON fault plan. Unknown fields
// are rejected so typos in hand-written plans surface immediately.
func ParsePlan(data []byte) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("faults: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// builtins are the named plans shipped with the testbed, so the CLI
// and CI can run resilience campaigns without a plan file.
var builtins = map[string]Plan{
	// blackout kills the channel from just before the warning chain
	// fires until the end of the run: the single-shot DENM is lost and
	// only the vehicle's fail-safe watchdog can save the stop.
	"blackout": {
		Name:      "blackout",
		Blackouts: []Window{{Start: D(2200 * time.Millisecond)}},
	},
	// burst-loss degrades the RSU→OBU link with a bursty
	// Gilbert–Elliott process for the whole run.
	"burst-loss": {
		Name: "burst-loss",
		Links: []LinkFault{{
			From: "rsu", To: "obu",
			PGoodBad: 0.15, PBadGood: 0.25,
			LossGood: 0.02, LossBad: 0.90,
		}},
	},
	// crash-rsu kills the RSU before the hazard fires and restarts it;
	// trigger retries bridge the outage.
	"crash-rsu": {
		Name: "crash-rsu",
		Crashes: []NodeCrash{{
			Node: NodeRSU, At: D(1 * time.Second), RestartAfter: D(1500 * time.Millisecond),
		}},
	},
	// crash-obu kills the OBU mid-approach; the mailbox and LDM are
	// lost and polls fail until the restart.
	"crash-obu": {
		Name: "crash-obu",
		Crashes: []NodeCrash{{
			Node: NodeOBU, At: D(2500 * time.Millisecond), RestartAfter: D(1 * time.Second),
		}},
	},
	// camera-dropout starves the edge pipeline of frames and
	// detections.
	"camera-dropout": {
		Name:   "camera-dropout",
		Camera: CameraFault{FrameDropProb: 0.4, DetectionDropProb: 0.3},
	},
	// http-flaky makes the OpenC2X API paths time out and error.
	"http-flaky": {
		Name: "http-flaky",
		HTTP: HTTPFaults{
			Trigger: PathFault{TimeoutProb: 0.2, ErrorProb: 0.2},
			Poll:    PathFault{TimeoutProb: 0.05, ErrorProb: 0.05},
		},
	},
	// soak backs the SOAK-1 overload campaign: a low rate of injected
	// API timeouts and errors runs for the whole soak while a station
	// crash/restart churns the mux's registration table under load.
	"soak": {
		Name: "soak",
		HTTP: HTTPFaults{
			Trigger: PathFault{TimeoutProb: 0.01, ErrorProb: 0.02},
			Poll:    PathFault{ErrorProb: 0.01},
		},
		Crashes: []NodeCrash{{
			Node: NodeOBU, At: D(2 * time.Second), RestartAfter: D(1 * time.Second),
		}},
	},
	// chaos layers a noise burst, bursty link loss, camera dropouts
	// and flaky HTTP on top of each other.
	"chaos": {
		Name: "chaos",
		Noise: []NoiseBurst{{
			Window:  Window{Start: D(1 * time.Second), End: D(3 * time.Second)},
			ExtraDB: 12,
		}},
		Links: []LinkFault{{
			PGoodBad: 0.10, PBadGood: 0.30,
			LossGood: 0.01, LossBad: 0.70,
		}},
		Camera: CameraFault{FrameDropProb: 0.25, DetectionDropProb: 0.15},
		HTTP: HTTPFaults{
			Trigger: PathFault{TimeoutProb: 0.10, ErrorProb: 0.10},
			Poll:    PathFault{TimeoutProb: 0.03, ErrorProb: 0.03},
		},
	},
}

// BuiltinPlan returns a named plan shipped with the testbed.
func BuiltinPlan(name string) (Plan, bool) {
	p, ok := builtins[name]
	return p, ok
}

// Builtins lists the shipped plan names, sorted.
func Builtins() []string {
	out := make([]string, 0, len(builtins))
	for name := range builtins {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
