// Package ca implements the Cooperative Awareness basic service
// (ETSI EN 302 637-2): cyclic CAM generation with the standard's
// dynamics-triggered rules, and reception handling that feeds the LDM.
//
// Generation rules: a CAM is generated when at least T_GenCamMin
// (100 ms) has elapsed since the previous one AND the station's
// heading changed by more than 4°, its position by more than 4 m, or
// its speed by more than 0.5 m/s; or unconditionally when T_GenCamMax
// (1000 ms) has elapsed. The low-frequency container is included at
// most every 500 ms.
package ca

import (
	"fmt"
	"math"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/flight"
	"itsbed/internal/geo"
	"itsbed/internal/its/messages"
	"itsbed/internal/metrics"
	"itsbed/internal/sim"
	"itsbed/internal/trace"
	"itsbed/internal/units"
)

// Standard generation-rule constants.
const (
	TGenCamMin   = 100 * time.Millisecond
	TGenCamMax   = 1000 * time.Millisecond
	TCheckGenCam = 100 * time.Millisecond
	TLowFreq     = 500 * time.Millisecond

	headingTriggerDeg = 4.0
	positionTriggerM  = 4.0
	speedTriggerMS    = 0.5
)

// VehicleState is the kinematic snapshot a CAM advertises.
type VehicleState struct {
	Position   geo.LatLon
	SpeedMS    float64
	HeadingRad float64
	AccelMS2   float64
	// YawRateDegS in degrees per second.
	YawRateDegS float64
	// Length and Width of the vehicle in metres.
	Length float64
	Width  float64
}

// StateProvider yields the station's current state.
type StateProvider interface {
	VehicleState() VehicleState
}

// StateFunc adapts a function to StateProvider.
type StateFunc func() VehicleState

// VehicleState implements StateProvider.
func (f StateFunc) VehicleState() VehicleState { return f() }

// SendFunc transmits an encoded CAM through the lower layers
// (BTP port 2001 over GN SHB).
type SendFunc func(payload []byte) error

// TxGate throttles CAM generation beyond the standard's own rules:
// MinInterval returns the minimum allowed gap since the previous CAM.
// A DCC controller (ETSI TS 102 687) implements it from the measured
// channel-busy ratio; the gate overrides even the T_GenCamMax
// unconditional trigger, exactly as DCC sits below the facilities
// layer in the ITS-G5 architecture.
type TxGate interface {
	MinInterval() time.Duration
}

// Config parameterises the CA service.
type Config struct {
	StationID   units.StationID
	StationType units.StationType
	Provider    StateProvider
	Send        SendFunc
	// Clock provides ITS timestamps; required.
	Clock *clock.NTPClock
	// DisableTriggers forces pure 1 Hz operation (RSU-style CAMs).
	DisableTriggers bool
	// Gate, when non-nil, throttles generation to at most one CAM per
	// Gate.MinInterval() (DCC channel-load control).
	Gate TxGate
	// Probe receives the station's ca_* counters, a span for each
	// generated CAM and a cam.tx flight event per generated CAM.
	Probe trace.Probe
}

// Service is the CA basic service of one station.
type Service struct {
	cfg    Config
	kernel *sim.Kernel
	ticker *sim.Ticker

	lastGen   time.Duration
	lastLF    time.Duration
	hasLast   bool
	lastState VehicleState
	hasLastLF bool
	// history records past reference positions for the low-frequency
	// container's path history.
	history []pathSample

	// Generated counts CAMs produced.
	Generated uint64
	// SendErrors counts lower-layer send failures.
	SendErrors uint64

	mGen, mErr *metrics.Counter
}

// New creates a CA service. Start must be called to begin generation.
func New(kernel *sim.Kernel, cfg Config) (*Service, error) {
	if cfg.Provider == nil || cfg.Send == nil || cfg.Clock == nil {
		return nil, fmt.Errorf("ca: provider, send and clock are required")
	}
	s := &Service{cfg: cfg, kernel: kernel}
	s.mGen = cfg.Probe.Counter("ca_generated_total")
	s.mErr = cfg.Probe.Counter("ca_send_errors_total")
	return s, nil
}

// Start begins the generation check cycle.
func (s *Service) Start() {
	if s.ticker != nil {
		return
	}
	s.ticker = s.kernel.Every(0, TCheckGenCam, s.check)
}

// Stop halts generation.
func (s *Service) Stop() {
	if s.ticker != nil {
		s.ticker.Stop()
		s.ticker = nil
	}
}

func (s *Service) check() {
	now := s.kernel.Now()
	st := s.cfg.Provider.VehicleState()
	elapsed := now - s.lastGen
	minGap := TGenCamMin
	if s.cfg.Gate != nil {
		if g := s.cfg.Gate.MinInterval(); g > minGap {
			minGap = g
		}
	}
	if s.hasLast && elapsed < minGap {
		return
	}
	trigger := !s.hasLast || elapsed >= TGenCamMax
	if !trigger && !s.cfg.DisableTriggers {
		dHeading := math.Abs(geo.HeadingDiff(s.lastState.HeadingRad, st.HeadingRad)) * 180 / math.Pi
		dPos, ok := geo.LocalDistance(s.lastState.Position, st.Position)
		if !ok {
			return
		}
		dSpeed := math.Abs(st.SpeedMS - s.lastState.SpeedMS)
		trigger = dHeading > headingTriggerDeg || dPos > positionTriggerM || dSpeed > speedTriggerMS
	}
	if !trigger {
		return
	}
	s.generate(now, st)
}

func (s *Service) generate(now time.Duration, st VehicleState) {
	ts := clock.TimestampIts(s.cfg.Clock.Now())
	cam := messages.NewCAM(s.cfg.StationID, units.DeltaTimeFromTimestamp(ts))
	cam.Basic = messages.BasicContainer{
		StationType: s.cfg.StationType,
		Position: messages.ReferencePosition{
			Latitude:             units.LatitudeFromDegrees(st.Position.Lat),
			Longitude:            units.LongitudeFromDegrees(st.Position.Lon),
			SemiMajorConfidence:  units.SemiAxisFromMetres(0.05),
			SemiMinorConfidence:  units.SemiAxisFromMetres(0.05),
			SemiMajorOrientation: units.HeadingFromRadians(st.HeadingRad),
			AltitudeValue:        messages.AltitudeUnavailable,
		},
	}
	accel := int16(math.Round(st.AccelMS2 * 10))
	if accel < -160 {
		accel = -160
	}
	if accel > 160 {
		accel = 160
	}
	yaw := int32(math.Round(st.YawRateDegS * 100))
	if yaw < -32766 {
		yaw = -32766
	}
	if yaw > 32766 {
		yaw = 32766
	}
	length := uint16(math.Round(st.Length * 10))
	if length == 0 || length > 1022 {
		length = 1023 // unavailable
	}
	width := uint8(math.Round(st.Width * 10))
	if width == 0 || width > 61 {
		width = 62 // unavailable
	}
	cam.HighFrequency = messages.BasicVehicleContainerHighFrequency{
		Heading:                  units.HeadingFromRadians(st.HeadingRad),
		HeadingConfidence:        10, // 1.0°
		Speed:                    units.SpeedFromMS(st.SpeedMS),
		SpeedConfidence:          5, // 0.05 m/s
		DriveDirection:           messages.DriveDirectionForward,
		VehicleLength:            length,
		VehicleWidth:             width,
		LongitudinalAcceleration: accel,
		AccelerationConfidence:   10,
		Curvature:                units.CurvatureUnavailable,
		YawRate:                  yaw,
	}
	if !s.hasLastLF || s.kernel.Now()-s.lastLF >= TLowFreq {
		cam.LowFrequency = &messages.BasicVehicleContainerLowFrequency{
			VehicleRole:    messages.VehicleRoleDefault,
			ExteriorLights: 0,
			PathHistory:    s.pathHistory(st),
		}
		s.lastLF = s.kernel.Now()
		s.hasLastLF = true
	}
	sp := s.cfg.Probe.Start("ca.generate", "facilities", now)
	payload, err := cam.Encode()
	if err != nil {
		sp.Drop(s.kernel.Now(), "encode_error")
		s.SendErrors++
		s.mErr.Inc()
		return
	}
	var sendErr error
	s.cfg.Probe.Scope(sp, func() { sendErr = s.cfg.Send(payload) })
	if sendErr != nil {
		sp.Drop(s.kernel.Now(), "send_error")
		s.SendErrors++
		s.mErr.Inc()
		return
	}
	sp.End(s.kernel.Now())
	s.Generated++
	s.mGen.Inc()
	s.cfg.Probe.Record(now, flight.CAMTx, 0, int64(s.cfg.StationID), 0)
	s.lastGen = now
	s.lastState = st
	s.hasLast = true
}

// pathSample is one recorded reference position.
type pathSample struct {
	pos geo.LatLon
	at  time.Duration
}

// maxHistorySamples bounds the retained trail; EN 302 637-2 allows up
// to 40 path points, the testbed keeps a short recent trail.
const maxHistorySamples = 10

// minPathSpacing is the minimum distance between retained samples.
const minPathSpacing = 0.2 // metres

// pathHistory converts the recorded trail into ETSI path points:
// deltas relative to the CAM's reference position, most recent first.
// It also appends the current position to the trail.
func (s *Service) pathHistory(st VehicleState) []messages.PathPoint {
	now := s.kernel.Now()
	// Record the new sample if it moved far enough from the last one.
	record := len(s.history) == 0
	if !record {
		last := s.history[len(s.history)-1]
		if d, ok := geo.LocalDistance(last.pos, st.Position); ok && d >= minPathSpacing {
			record = true
		}
	}
	if record {
		s.history = append(s.history, pathSample{pos: st.Position, at: now})
		if len(s.history) > maxHistorySamples {
			s.history = s.history[len(s.history)-maxHistorySamples:]
		}
	}
	// Build deltas, most recent first, skipping the newest sample when
	// it coincides with the reference position.
	var out []messages.PathPoint
	for i := len(s.history) - 1; i >= 0; i-- {
		h := s.history[i]
		dLat := int64(units.LatitudeFromDegrees(h.pos.Lat)) - int64(units.LatitudeFromDegrees(st.Position.Lat))
		dLon := int64(units.LongitudeFromDegrees(h.pos.Lon)) - int64(units.LongitudeFromDegrees(st.Position.Lon))
		if dLat == 0 && dLon == 0 {
			continue
		}
		clamp := func(v int64) int32 {
			if v < -131071 {
				return -131071
			}
			if v > 131072 {
				return 131072
			}
			return int32(v)
		}
		dt := (now - h.at) / (10 * time.Millisecond)
		if dt > 65535 {
			dt = 65535
		}
		out = append(out, messages.PathPoint{
			DeltaLatitude:  clamp(dLat),
			DeltaLongitude: clamp(dLon),
			DeltaTime:      uint16(dt),
		})
	}
	return out
}

// Receiver handles incoming CAMs: decode, deliver to the LDM sink and
// an optional application callback.
type Receiver struct {
	// Sink receives every decoded CAM (typically the LDM).
	Sink func(*messages.CAM)
	// Probe receives the station's ca_rx_* counters, a span for each
	// received CAM and a cam.rx flight event per decoded (or
	// malformed) CAM.
	Probe trace.Probe
	// Now supplies span and event timestamps.
	Now func() time.Duration
	// Received counts successfully decoded CAMs.
	Received uint64
	// Malformed counts undecodable payloads.
	Malformed uint64

	mRecv, mMalf *metrics.Counter
}

// OnDecoded processes one received CAM, or the error its decode
// returned. cam is read-only: the stations that heard one frame share
// its decode, and Sink may retain it.
func (r *Receiver) OnDecoded(cam *messages.CAM, err error) {
	if r.mRecv == nil {
		r.mRecv = r.Probe.Counter("ca_rx_received_total")
		r.mMalf = r.Probe.Counter("ca_rx_malformed_total")
	}
	now := r.now()
	if err != nil {
		r.Probe.Start("ca.receive", "facilities", now).Drop(now, "malformed")
		r.Malformed++
		r.mMalf.Inc()
		r.Probe.Record(now, flight.CAMRx, flight.RxMalformed, 0, 0)
		return
	}
	sp := r.Probe.Start("ca.receive", "facilities", now)
	r.Received++
	r.mRecv.Inc()
	r.Probe.Record(now, flight.CAMRx, flight.RxOK, int64(cam.Header.StationID), 0)
	if r.Sink != nil {
		r.Probe.Scope(sp, func() { r.Sink(cam) })
	}
	sp.End(r.now())
}

func (r *Receiver) now() time.Duration {
	if r.Now == nil {
		return 0
	}
	return r.Now()
}
