// Package edge implements the road-side edge node's software from
// Fig. 3 of the paper: the Object Detection Service, which consumes
// the camera/YOLO frame results and tracks road users entering the
// region of interest, and the Hazard Advertisement Service, which
// decides that a potential collision exists when a tracked object
// crosses the action point and POSTs a trigger_denm request to the
// RSU's OpenC2X HTTP API.
package edge

import (
	"math/rand"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/geo"
	"itsbed/internal/its/messages"
	"itsbed/internal/openc2x"
	"itsbed/internal/perception"
	"itsbed/internal/sim"
)

// TrackedObject is the Object Detection Service's view of one road
// user in the region of interest.
type TrackedObject struct {
	Class perception.Class
	// Distance is the latest estimated distance to the camera.
	Distance float64
	// LastSeen is the capture time of the latest contributing frame.
	LastSeen time.Duration
	// Frames counts contributing frames.
	Frames uint64
}

// ObjectDetectionService tracks detections over time, one track per
// object class.
type ObjectDetectionService struct {
	objects map[perception.Class]*TrackedObject
	// Lifetime after which an unrefreshed track is dropped.
	Lifetime time.Duration
	subs     []func(TrackedObject, perception.FrameResult)
}

// NewObjectDetectionService builds the service.
func NewObjectDetectionService() *ObjectDetectionService {
	return &ObjectDetectionService{
		objects:  make(map[perception.Class]*TrackedObject),
		Lifetime: 1500 * time.Millisecond,
	}
}

// Subscribe registers a consumer of per-frame track updates (the
// Hazard Advertisement Service).
func (s *ObjectDetectionService) Subscribe(fn func(TrackedObject, perception.FrameResult)) {
	if fn != nil {
		s.subs = append(s.subs, fn)
	}
}

// OnFrame ingests one camera/YOLO frame result.
func (s *ObjectDetectionService) OnFrame(res perception.FrameResult) {
	for _, det := range res.Detections {
		tr, ok := s.objects[det.Class]
		if !ok || res.CaptureTime-tr.LastSeen > s.Lifetime {
			tr = &TrackedObject{Class: det.Class}
			s.objects[det.Class] = tr
		}
		tr.Distance = det.EstimatedDistance
		tr.LastSeen = res.CaptureTime
		tr.Frames++
		for _, fn := range s.subs {
			fn(*tr, res)
		}
	}
}

// HazardConfig parameterises the Hazard Advertisement Service.
type HazardConfig struct {
	// ActionPointDistance: an object estimated at or below this
	// distance from the camera triggers the warning (paper: 1.52 m).
	ActionPointDistance float64
	// TriggerClasses are the detector classes that arm the trigger
	// (the testbed keys on the stop sign).
	TriggerClasses []perception.Class
	// EventPosition is the geodetic position advertised in the DENM
	// (the action point on the floor).
	EventPosition geo.LatLon
	// Cause of the advertised event.
	Cause messages.EventType
	// Cooldown suppresses re-triggering for the same incursion.
	Cooldown time.Duration
	// ProcessingMean/Jitter model the hazard evaluation code path on
	// the edge node between the YOLO output and the HTTP request.
	ProcessingMean   time.Duration
	ProcessingJitter time.Duration
	// RepetitionInterval, when positive, asks the RSU to repeat the
	// DENM for repetitionWindow (recovers losses on obstructed links);
	// zero sends a single DENM as the paper's testbed does.
	RepetitionInterval time.Duration
	// TriggerRetries is how many times a failed trigger_denm request is
	// retried with capped exponential backoff. Zero (the default)
	// disables the response callback entirely, preserving the paper's
	// fire-and-forget behaviour.
	TriggerRetries int
	// TriggerRetryBase is the first backoff delay; zero selects 40 ms.
	TriggerRetryBase time.Duration
	// TriggerRetryCap bounds the exponential backoff; zero selects
	// 320 ms.
	TriggerRetryCap time.Duration
}

// repetitionWindow bounds the RSU's DENM repetition when
// RepetitionInterval is set.
const repetitionWindow = 2 * time.Second

// DefaultHazardConfig matches the paper's experiment.
func DefaultHazardConfig(eventPos geo.LatLon) HazardConfig {
	return HazardConfig{
		ActionPointDistance: 1.52,
		TriggerClasses:      []perception.Class{perception.ClassStopSign},
		EventPosition:       eventPos,
		Cause: messages.EventType{
			CauseCode:    messages.CauseCollisionRisk,
			SubCauseCode: messages.CollisionRiskCrossing,
		},
		Cooldown:         5 * time.Second,
		ProcessingMean:   6 * time.Millisecond,
		ProcessingJitter: 2 * time.Millisecond,
	}
}

// HazardAdvertisementService turns tracked incursions into DENMs via
// the RSU's OpenC2X API.
type HazardAdvertisementService struct {
	cfg    HazardConfig
	kernel *sim.Kernel
	rsu    *openc2x.SimNode
	clock  *clock.NTPClock
	rng    *rand.Rand

	lastTrigger time.Duration
	triggered   bool

	// OnDecision, if set, observes every trigger decision with the
	// frame that caused it (step-2 timestamping point).
	OnDecision func(tr TrackedObject, res perception.FrameResult, decided time.Duration)

	// Triggers counts DENMs requested.
	Triggers uint64
	// Suppressed counts detections inside the action point ignored by
	// cooldown.
	Suppressed uint64
	// TriggerFailures counts trigger_denm requests that came back with
	// an error (only observable when TriggerRetries > 0).
	TriggerFailures uint64
	// TriggerRetriesIssued counts retry attempts scheduled.
	TriggerRetriesIssued uint64

	// OnTriggerRetry, if set, observes each retry with its 1-based
	// attempt number (core threads it into the fault metrics).
	OnTriggerRetry func(attempt int)
}

// NewHazardService builds the service. rsu is the RSU's API node; clk
// is the edge node's NTP-disciplined clock.
func NewHazardService(kernel *sim.Kernel, cfg HazardConfig, rsu *openc2x.SimNode, clk *clock.NTPClock) *HazardAdvertisementService {
	return &HazardAdvertisementService{
		cfg:    cfg,
		kernel: kernel,
		rsu:    rsu,
		clock:  clk,
		rng:    kernel.Rand("edge.hazard"),
	}
}

// OnTrack consumes Object Detection Service updates.
func (h *HazardAdvertisementService) OnTrack(tr TrackedObject, res perception.FrameResult) {
	if !h.classArmed(tr.Class) || tr.Distance > h.cfg.ActionPointDistance {
		return
	}
	now := h.kernel.Now()
	if h.triggered && now-h.lastTrigger < h.cfg.Cooldown {
		h.Suppressed++
		return
	}
	h.triggered = true
	h.lastTrigger = now
	if h.OnDecision != nil {
		h.OnDecision(tr, res, now)
	}
	// Hazard evaluation code path, then the HTTP trigger to the RSU.
	proc := h.cfg.ProcessingMean
	if h.cfg.ProcessingJitter > 0 {
		proc += time.Duration(h.rng.Int63n(int64(2*h.cfg.ProcessingJitter))) - h.cfg.ProcessingJitter
	}
	if proc < 0 {
		proc = 0
	}
	h.kernel.ScheduleFn(proc, func() {
		h.Triggers++
		req := openc2x.TriggerRequest{
			CauseCode:    uint8(h.cfg.Cause.CauseCode),
			SubCauseCode: uint8(h.cfg.Cause.SubCauseCode),
			Latitude:     h.cfg.EventPosition.Lat,
			Longitude:    h.cfg.EventPosition.Lon,
			Quality:      3,
			RadiusMetres: 100,
		}
		if h.cfg.RepetitionInterval > 0 {
			req.RepetitionIntervalMS = uint16(h.cfg.RepetitionInterval / time.Millisecond)
			req.RepetitionDurationMS = uint32(repetitionWindow / time.Millisecond)
		}
		h.sendTrigger(req, 0)
	})
}

// sendTrigger issues the trigger_denm request, retrying failures with
// capped exponential backoff on deterministic sim-clock timers. With
// retries disabled the request is fire-and-forget (no response
// callback), which keeps the fault-free RNG sequence identical to the
// paper-faithful baseline.
func (h *HazardAdvertisementService) sendTrigger(req openc2x.TriggerRequest, attempt int) {
	if h.cfg.TriggerRetries <= 0 {
		h.rsu.TriggerDENM(req, nil)
		return
	}
	h.rsu.TriggerDENM(req, func(_ messages.ActionID, err error) {
		if err == nil {
			return
		}
		h.TriggerFailures++
		if attempt >= h.cfg.TriggerRetries {
			return
		}
		base := h.cfg.TriggerRetryBase
		if base <= 0 {
			base = 40 * time.Millisecond
		}
		limit := h.cfg.TriggerRetryCap
		if limit <= 0 {
			limit = 320 * time.Millisecond
		}
		backoff := base << uint(attempt)
		if backoff > limit {
			backoff = limit
		}
		h.TriggerRetriesIssued++
		if h.OnTriggerRetry != nil {
			h.OnTriggerRetry(attempt + 1)
		}
		h.kernel.ScheduleFn(backoff, func() { h.sendTrigger(req, attempt+1) })
	})
}

func (h *HazardAdvertisementService) classArmed(c perception.Class) bool {
	for _, tc := range h.cfg.TriggerClasses {
		if tc == c {
			return true
		}
	}
	return false
}
