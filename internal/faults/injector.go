package faults

import (
	"fmt"
	"math/rand"
	"time"

	"itsbed/internal/flight"
	"itsbed/internal/metrics"
	"itsbed/internal/sim"
	"itsbed/internal/trace"
	"itsbed/internal/tracing"
)

// Verdict classifies the fate of one OpenC2X HTTP request under fault
// injection. It mirrors openc2x.HTTPVerdict without importing it, so
// the dependency points from openc2x to faults consumers only.
type Verdict int

// Request verdicts.
const (
	VerdictOK Verdict = iota
	// VerdictError fails the request fast with a server error.
	VerdictError
	// VerdictTimeout hangs the request until the client deadline.
	VerdictTimeout
)

// Injector executes one Plan against one testbed run. All randomness
// draws from dedicated kernel streams ("faults.radio", "faults.camera",
// "faults.http"), so injection decisions are a deterministic function
// of (seed, plan) and never perturb the streams of the layers they
// disturb.
//
// The injector implements the hook interfaces of the layers it
// touches: radio.FaultModel on the medium, openc2x.HTTPFaultModel on
// the API nodes, and the camera filter used by core.
type Injector struct {
	plan   Plan
	kernel *sim.Kernel
	// p records the faults' counters, flight events (in the "faults"
	// ring) and spans.
	p trace.Probe

	radioRNG  *rand.Rand
	cameraRNG *rand.Rand
	httpRNG   *rand.Rand

	// ge holds one Gilbert–Elliott chain per (fault entry, directed
	// link) pair; true means the chain is in the bad state.
	ge map[geKey]bool

	// BlackoutFrames counts frames wiped by a radio blackout.
	BlackoutFrames uint64
	// LinkDrops counts per-receiver frames dropped by link faults.
	LinkDrops uint64
	// CameraFrameDrops counts whole camera frames suppressed.
	CameraFrameDrops uint64
	// DetectionDrops counts individual detections suppressed.
	DetectionDrops uint64
	// HTTPFaults counts injected API timeouts and errors.
	HTTPFaults uint64
	// Crashes and Restarts count node lifecycle events executed.
	Crashes, Restarts uint64

	mBlackout, mLinkDrop, mFrameDrop, mDetDrop *metrics.Counter
	mHTTPTimeoutTrig, mHTTPErrorTrig           *metrics.Counter
	mHTTPTimeoutPoll, mHTTPErrorPoll           *metrics.Counter
	mCrash, mRestart                           *metrics.Counter
}

type geKey struct {
	fault    int
	src, dst string
}

// NewInjector binds a plan to a run. Any part of sink may be nil;
// fault events then go uncounted, unrecorded or untraced, but
// injection is unaffected (the random streams never depend on
// instrumentation). The injector immediately schedules the plan's
// window spans and flight events on the kernel, when tracing or
// recording, so blackout and noise periods are visible in the trace
// export and the flight recorder.
func NewInjector(kernel *sim.Kernel, plan Plan, sink trace.Sink) *Injector {
	inj := &Injector{
		plan:      plan,
		kernel:    kernel,
		p:         sink.Probe("faults"),
		radioRNG:  kernel.Rand("faults.radio"),
		cameraRNG: kernel.Rand("faults.camera"),
		httpRNG:   kernel.Rand("faults.http"),
		ge:        make(map[geKey]bool),
	}
	reg := sink.Metrics
	inj.mBlackout = reg.Counter("fault_radio_blackout_frames_total")
	inj.mLinkDrop = reg.Counter("fault_radio_link_drops_total")
	inj.mFrameDrop = reg.Counter("fault_camera_frames_dropped_total")
	inj.mDetDrop = reg.Counter("fault_camera_detections_dropped_total")
	inj.mHTTPTimeoutTrig = reg.Counter("fault_http_requests_total", metrics.L("path", "trigger"), metrics.L("verdict", "timeout"))
	inj.mHTTPErrorTrig = reg.Counter("fault_http_requests_total", metrics.L("path", "trigger"), metrics.L("verdict", "error"))
	inj.mHTTPTimeoutPoll = reg.Counter("fault_http_requests_total", metrics.L("path", "poll"), metrics.L("verdict", "timeout"))
	inj.mHTTPErrorPoll = reg.Counter("fault_http_requests_total", metrics.L("path", "poll"), metrics.L("verdict", "error"))
	inj.mCrash = reg.Counter("fault_node_crashes_total")
	inj.mRestart = reg.Counter("fault_node_restarts_total")
	inj.armWindowSpans()
	inj.armWindowEvents()
	return inj
}

// armWindowSpans opens one span per bounded blackout/noise window so
// the fault periods appear as bars in the Perfetto export. Open-ended
// windows get a point span at their start.
func (inj *Injector) armWindowSpans() {
	// The kernel.At calls consume event sequence numbers, so arm them
	// only when something records what they do.
	if !inj.p.Tracing() {
		return
	}
	arm := func(name string, w Window, attr func(*tracing.Span)) {
		inj.kernel.At(w.Start.Std(), func() {
			sp := inj.span(name, "plan", inj.kernel.Now())
			if attr != nil {
				attr(sp)
			}
			if w.End == 0 {
				sp.SetAttr("open_ended", "true")
				sp.End(inj.kernel.Now())
				return
			}
			inj.kernel.At(w.End.Std(), func() { sp.End(inj.kernel.Now()) })
		})
	}
	for _, w := range inj.plan.Blackouts {
		arm("fault.blackout", w, nil)
	}
	for _, nb := range inj.plan.Noise {
		extra := nb.ExtraDB
		arm("fault.noise", nb.Window, func(sp *tracing.Span) {
			sp.SetAttr("extra_db", formatDB(extra))
		})
	}
}

// span starts a faults-layer span attributed to station.
func (inj *Injector) span(name, station string, now time.Duration) *tracing.Span {
	return inj.p.Sink().Tracer.Start(name, "faults", station, now)
}

// armWindowEvents schedules one flight event at each bounded window
// edge, so a post-mortem shows exactly when a fault became active.
func (inj *Injector) armWindowEvents() {
	if !inj.p.Hook.Enabled() {
		return
	}
	arm := func(w Window, start, end uint8) {
		inj.kernel.At(w.Start.Std(), func() {
			inj.p.Record(inj.kernel.Now(), flight.FaultEvent, start, 0, 0)
		})
		if w.End != 0 {
			inj.kernel.At(w.End.Std(), func() {
				inj.p.Record(inj.kernel.Now(), flight.FaultEvent, end, 0, 0)
			})
		}
	}
	for _, w := range inj.plan.Blackouts {
		arm(w, flight.FaultBlackoutStart, flight.FaultBlackoutEnd)
	}
	for _, nb := range inj.plan.Noise {
		arm(nb.Window, flight.FaultNoiseStart, flight.FaultNoiseEnd)
	}
}

func formatDB(v float64) string { return fmt.Sprintf("%.1f", v) }

// --- radio.FaultModel ---------------------------------------------------

// BlackoutAt reports whether the medium is blacked out at now; a true
// result wipes the frame at every receiver.
func (inj *Injector) BlackoutAt(now time.Duration) bool {
	for _, w := range inj.plan.Blackouts {
		if w.Contains(now) {
			inj.BlackoutFrames++
			inj.mBlackout.Inc()
			return true
		}
	}
	return false
}

// ExtraNoiseDB returns the interference burst contribution to the
// receivers' noise floor at now, in dB.
func (inj *Injector) ExtraNoiseDB(now time.Duration) float64 {
	var extra float64
	for _, nb := range inj.plan.Noise {
		if nb.Contains(now) {
			extra += nb.ExtraDB
		}
	}
	return extra
}

// LinkDrop advances every matching Gilbert–Elliott chain for the
// directed link src→dst and decides whether the frame is forcibly
// lost. The reason distinguishes burst loss (bad state) from residual
// corruption (good state).
func (inj *Injector) LinkDrop(now time.Duration, src, dst string) (reason string, drop bool) {
	for i, lf := range inj.plan.Links {
		if !lf.matches(src, dst) || !activeIn(lf.Windows, now) {
			continue
		}
		key := geKey{fault: i, src: src, dst: dst}
		bad := inj.ge[key]
		// Advance the two-state chain once per evaluated frame.
		if bad {
			if inj.radioRNG.Float64() < lf.PBadGood {
				bad = false
			}
		} else if inj.radioRNG.Float64() < lf.PGoodBad {
			bad = true
		}
		inj.ge[key] = bad
		loss, why := lf.LossGood, "fault_corruption"
		if bad {
			loss, why = lf.LossBad, "fault_burst_loss"
		}
		if loss > 0 && inj.radioRNG.Float64() < loss {
			// Later matching faults still advance next frame; one drop
			// is enough for this one.
			inj.LinkDrops++
			inj.mLinkDrop.Inc()
			return why, true
		}
	}
	return "", false
}

// --- camera faults ------------------------------------------------------

// DropCameraFrame decides whether a whole camera frame is lost.
func (inj *Injector) DropCameraFrame(now time.Duration) bool {
	c := inj.plan.Camera
	if c.FrameDropProb <= 0 || !activeIn(c.Windows, now) {
		return false
	}
	if inj.cameraRNG.Float64() < c.FrameDropProb {
		inj.CameraFrameDrops++
		inj.mFrameDrop.Inc()
		inj.span("fault.camera_frame", "edge", now).Drop(now, "frame_drop")
		return true
	}
	return false
}

// DropDetection decides whether one detection inside a surviving frame
// is lost (YOLO dropout).
func (inj *Injector) DropDetection(now time.Duration) bool {
	c := inj.plan.Camera
	if c.DetectionDropProb <= 0 || !activeIn(c.Windows, now) {
		return false
	}
	if inj.cameraRNG.Float64() < c.DetectionDropProb {
		inj.DetectionDrops++
		inj.mDetDrop.Inc()
		return true
	}
	return false
}

// --- openc2x.HTTPFaultModel ---------------------------------------------

// TriggerVerdict screens one trigger_denm request.
func (inj *Injector) TriggerVerdict(now time.Duration) Verdict {
	return inj.pathVerdict(now, inj.plan.HTTP.Trigger, inj.mHTTPTimeoutTrig, inj.mHTTPErrorTrig)
}

// PollVerdict screens one request_denm poll.
func (inj *Injector) PollVerdict(now time.Duration) Verdict {
	return inj.pathVerdict(now, inj.plan.HTTP.Poll, inj.mHTTPTimeoutPoll, inj.mHTTPErrorPoll)
}

func (inj *Injector) pathVerdict(now time.Duration, pf PathFault, mTimeout, mError *metrics.Counter) Verdict {
	if (pf.TimeoutProb <= 0 && pf.ErrorProb <= 0) || !activeIn(pf.Windows, now) {
		return VerdictOK
	}
	u := inj.httpRNG.Float64()
	switch {
	case u < pf.TimeoutProb:
		inj.HTTPFaults++
		mTimeout.Inc()
		return VerdictTimeout
	case u < pf.TimeoutProb+pf.ErrorProb:
		inj.HTTPFaults++
		mError.Inc()
		return VerdictError
	}
	return VerdictOK
}

// --- node crash/restart -------------------------------------------------

// ScheduleCrashes arms the plan's node lifecycle events on the kernel.
// The caller supplies the crash and restart actions (stopping the
// station, wiping mailboxes); the injector owns timing, counting and
// tracing. Call once, before the kernel runs.
func (inj *Injector) ScheduleCrashes(crash, restart func(node string)) {
	for _, c := range inj.plan.Crashes {
		node := c.Node
		inj.kernel.At(c.At.Std(), func() {
			now := inj.kernel.Now()
			inj.Crashes++
			inj.mCrash.Inc()
			inj.p.Record(now, flight.FaultEvent, flight.FaultCrash, 0, 0)
			inj.span("fault.crash", node, now).Drop(now, "crash")
			if crash != nil {
				crash(node)
			}
		})
		if c.RestartAfter > 0 {
			inj.kernel.At(c.At.Std()+c.RestartAfter.Std(), func() {
				now := inj.kernel.Now()
				inj.Restarts++
				inj.mRestart.Inc()
				inj.p.Record(now, flight.FaultEvent, flight.FaultRestart, 0, 0)
				inj.span("fault.restart", node, now).End(now)
				if restart != nil {
					restart(node)
				}
			})
		}
	}
}
