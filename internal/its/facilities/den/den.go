// Package den implements the Decentralized Environmental Notification
// basic service (ETSI EN 302 637-3): application-triggered DENM
// origination with ActionID management and repetition, plus the
// reception state machine that deduplicates repeated DENMs and
// delivers new or updated events to the application and the LDM.
package den

import (
	"fmt"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/flight"
	"itsbed/internal/geo"
	"itsbed/internal/its/messages"
	"itsbed/internal/metrics"
	"itsbed/internal/sim"
	"itsbed/internal/trace"
	"itsbed/internal/tracing"
	"itsbed/internal/units"
)

// SendFunc transmits an encoded DENM through the lower layers
// (BTP port 2002 over GN GeoBroadcast to the event area).
type SendFunc func(payload []byte, area geonetArea) error

// geonetArea carries the destination-area parameters without importing
// geonet (kept minimal to avoid a facilities→network dependency; the
// stack adapts it).
type geonetArea struct {
	Centre       geo.LatLon
	RadiusMetres uint16
}

// Area is the exported alias for the destination area.
type Area = geonetArea

// NewArea builds a circular destination area.
func NewArea(centre geo.LatLon, radiusMetres uint16) Area {
	return Area{Centre: centre, RadiusMetres: radiusMetres}
}

// EventRequest describes an application trigger (AppDENM_trigger of
// EN 302 637-3).
type EventRequest struct {
	EventType messages.EventType
	Position  geo.LatLon
	Quality   messages.InformationQuality
	// Validity of the event; zero selects the standard 600 s default.
	Validity time.Duration
	// RepetitionInterval between retransmissions; zero disables
	// repetition (single shot, as the testbed uses).
	RepetitionInterval time.Duration
	// RepetitionDuration bounds total repetition time.
	RepetitionDuration time.Duration
	// RelevanceRadius of the destination area in metres; zero selects
	// 200 m.
	RelevanceRadius uint16
	// EventSpeedMS and EventHeadingRad optionally populate the
	// location container.
	EventSpeedMS    float64
	EventHeadingRad float64
}

// Config parameterises the DEN service.
type Config struct {
	StationID   units.StationID
	StationType units.StationType
	Send        SendFunc
	Clock       *clock.NTPClock
	// Probe receives the station's den_* counters, trigger/encode
	// spans (repetitions re-attach to their trigger by ActionID) and a
	// denm.tx flight event per transmission (including repetitions),
	// carrying the ActionID.
	Probe trace.Probe
}

// activeEvent is one originated event under repetition management.
type activeEvent struct {
	denm   *messages.DENM
	area   Area
	ticker *sim.Ticker
	until  time.Duration
}

// Service is the DEN basic service of one station.
type Service struct {
	cfg    Config
	kernel *sim.Kernel
	seq    uint16
	active map[messages.ActionID]*activeEvent

	// OnTransmit, if set, observes every DENM handed to the lower
	// layers (the paper's "RSU sends DENM" timestamping point).
	OnTransmit func(*messages.DENM)

	// Originated counts trigger requests accepted.
	Originated uint64
	// Transmitted counts DENMs put on the air (including repetitions).
	Transmitted uint64
	// SendErrors counts lower-layer failures.
	SendErrors uint64

	mTrig, mTx, mRep, mErr *metrics.Counter
}

// New creates a DEN service.
func New(kernel *sim.Kernel, cfg Config) (*Service, error) {
	if cfg.Send == nil || cfg.Clock == nil {
		return nil, fmt.Errorf("den: send and clock are required")
	}
	s := &Service{cfg: cfg, kernel: kernel, active: make(map[messages.ActionID]*activeEvent)}
	s.mTrig = cfg.Probe.Counter("den_triggers_total")
	s.mTx = cfg.Probe.Counter("den_transmissions_total")
	s.mRep = cfg.Probe.Counter("den_repetitions_total")
	s.mErr = cfg.Probe.Counter("den_send_errors_total")
	return s, nil
}

// Trigger originates a new DENM per the request and returns its
// ActionID (AppDENM_trigger).
func (s *Service) Trigger(req EventRequest) (messages.ActionID, error) {
	s.seq++
	id := messages.ActionID{OriginatingStationID: s.cfg.StationID, SequenceNumber: s.seq}
	now := clock.TimestampIts(s.cfg.Clock.Now())
	d := messages.NewDENM(s.cfg.StationID)
	validity := uint32(messages.DefaultValidityDuration)
	if req.Validity > 0 {
		validity = uint32(req.Validity / time.Second)
	}
	d.Management = messages.ManagementContainer{
		ActionID:         id,
		DetectionTime:    now,
		ReferenceTime:    now,
		EventPosition:    refPosition(req.Position),
		ValidityDuration: &validity,
		StationType:      s.cfg.StationType,
	}
	if req.RepetitionInterval > 0 {
		ti := uint16(req.RepetitionInterval / time.Millisecond)
		if ti == 0 {
			ti = 1
		}
		d.Management.TransmissionInterval = &ti
	}
	d.Situation = &messages.SituationContainer{
		InformationQuality: req.Quality,
		EventType:          req.EventType,
	}
	// Location container: a single empty trace at the event position
	// (the testbed's events are points, not itineraries).
	loc := &messages.LocationContainer{Traces: []messages.Trace{{}}}
	if req.EventSpeedMS > 0 {
		sp := units.SpeedFromMS(req.EventSpeedMS)
		loc.EventSpeed = &sp
		h := units.HeadingFromRadians(req.EventHeadingRad)
		loc.EventPositionHeading = &h
	}
	d.Location = loc

	radius := req.RelevanceRadius
	if radius == 0 {
		radius = 200
	}
	area := NewArea(req.Position, radius)
	ev := &activeEvent{denm: d, area: area}
	s.Originated++
	s.mTrig.Inc()
	// The trigger span parents every transmission of this event —
	// including repetitions, which fire from a ticker and re-attach by
	// the ActionID identity the message carries.
	sp := s.cfg.Probe.Start("den.trigger", "facilities", s.kernel.Now())
	sp.SetAttr("action_id", fmt.Sprintf("%d:%d", uint32(id.OriginatingStationID), id.SequenceNumber))
	s.cfg.Probe.Bind(tracing.KeyDENM(s.cfg.Probe.Name(), uint32(id.OriginatingStationID), id.SequenceNumber), sp)
	var txErr error
	s.cfg.Probe.Scope(sp, func() { txErr = s.transmit(ev) })
	sp.End(s.kernel.Now())
	if txErr != nil {
		return id, txErr
	}
	if req.RepetitionInterval > 0 {
		dur := req.RepetitionDuration
		if dur <= 0 {
			dur = time.Duration(validity) * time.Second
		}
		ev.until = s.kernel.Now() + dur
		s.active[id] = ev
		ev.ticker = s.kernel.Every(req.RepetitionInterval, req.RepetitionInterval, func() {
			if s.kernel.Now() > ev.until {
				s.stopRepetition(id)
				return
			}
			// Repetitions re-send the DENM unchanged: the reference
			// time stays put so receivers recognise them as copies,
			// not updates (EN 302 637-3 §8.1.2).
			s.mRep.Inc()
			if err := s.transmit(ev); err != nil {
				s.SendErrors++
			}
		})
	}
	return id, nil
}

func (s *Service) stopRepetition(id messages.ActionID) {
	if ev, ok := s.active[id]; ok {
		ev.ticker.Stop()
		delete(s.active, id)
	}
}

// Stop halts all repetition tickers (shutdown).
func (s *Service) Stop() {
	for id := range s.active {
		s.stopRepetition(id)
	}
}

func (s *Service) transmit(ev *activeEvent) error {
	id := ev.denm.Management.ActionID
	parent := s.cfg.Probe.Current()
	if parent == nil {
		// Repetition ticker: re-attach to the originating trigger.
		parent = s.cfg.Probe.Find(tracing.KeyDENM(s.cfg.Probe.Name(), uint32(id.OriginatingStationID), id.SequenceNumber))
	}
	sp := s.cfg.Probe.StartChild(parent, "den.transmit", "facilities", s.kernel.Now())
	payload, err := ev.denm.Encode()
	if err != nil {
		s.SendErrors++
		s.mErr.Inc()
		sp.Drop(s.kernel.Now(), "encode_error")
		return fmt.Errorf("den: encode: %w", err)
	}
	var sendErr error
	s.cfg.Probe.Scope(sp, func() { sendErr = s.cfg.Send(payload, ev.area) })
	if sendErr != nil {
		s.SendErrors++
		s.mErr.Inc()
		sp.Drop(s.kernel.Now(), "send_error")
		return fmt.Errorf("den: send: %w", sendErr)
	}
	sp.End(s.kernel.Now())
	s.Transmitted++
	s.mTx.Inc()
	s.cfg.Probe.Record(s.kernel.Now(), flight.DENMTx, 0,
		int64(uint32(id.OriginatingStationID)), int64(id.SequenceNumber))
	if s.OnTransmit != nil {
		s.OnTransmit(ev.denm)
	}
	return nil
}

func refPosition(p geo.LatLon) messages.ReferencePosition {
	return messages.ReferencePosition{
		Latitude:            units.LatitudeFromDegrees(p.Lat),
		Longitude:           units.LongitudeFromDegrees(p.Lon),
		SemiMajorConfidence: units.SemiAxisFromMetres(0.5),
		SemiMinorConfidence: units.SemiAxisFromMetres(0.5),
		AltitudeValue:       messages.AltitudeUnavailable,
	}
}

// Receiver implements the DENM reception state machine: repeated
// copies of the same (ActionID, ReferenceTime) are dropped, new events
// and genuine updates are delivered.
type Receiver struct {
	// Sink receives each new or updated DENM (typically LDM ingestion
	// plus the application handler).
	Sink func(*messages.DENM)
	seen map[messages.ActionID]uint64 // last delivered referenceTime

	// Probe receives the station's den_rx_* counters, decode/deliver
	// spans (suppressed repetitions end with drop_reason=repetition)
	// and a denm.rx flight event per decoded (or malformed) DENM.
	Probe trace.Probe
	// Now is the time source for span and event stamps (the simulation
	// kernel).
	Now func() time.Duration

	// Received counts successfully decoded DENMs.
	Received uint64
	// Repeated counts suppressed repetitions.
	Repeated uint64
	// Malformed counts undecodable payloads.
	Malformed uint64

	mRecv, mSupp, mMalf *metrics.Counter
}

// OnDecoded processes one received DENM, or the error its decode
// returned. d is read-only: the stations that heard one frame share
// its decode, and Sink may retain it.
func (r *Receiver) OnDecoded(d *messages.DENM, err error) {
	if r.mRecv == nil {
		r.mRecv = r.Probe.Counter("den_rx_received_total")
		r.mSupp = r.Probe.Counter("den_rx_suppressed_total")
		r.mMalf = r.Probe.Counter("den_rx_malformed_total")
	}
	now := r.now()
	if err != nil {
		r.Malformed++
		r.mMalf.Inc()
		r.Probe.Record(now, flight.DENMRx, flight.RxMalformed, 0, 0)
		r.Probe.Start("den.receive", "facilities", now).Drop(r.now(), "malformed")
		return
	}
	r.Received++
	r.mRecv.Inc()
	r.Probe.Record(now, flight.DENMRx, flight.RxOK,
		int64(uint32(d.Management.ActionID.OriginatingStationID)), int64(d.Management.ActionID.SequenceNumber))
	if r.seen == nil {
		r.seen = make(map[messages.ActionID]uint64)
	}
	id := d.Management.ActionID
	var sp *tracing.Span
	if r.Probe.Tracing() {
		sp = r.Probe.Start("den.receive", "facilities", now)
		sp.SetAttr("action_id", fmt.Sprintf("%d:%d", uint32(id.OriginatingStationID), id.SequenceNumber))
	}
	if last, ok := r.seen[id]; ok && d.Management.ReferenceTime <= last {
		r.Repeated++
		r.mSupp.Inc()
		sp.Drop(r.now(), "repetition")
		return
	}
	r.seen[id] = d.Management.ReferenceTime
	if r.Sink != nil {
		r.Probe.Scope(sp, func() { r.Sink(d) })
	}
	sp.End(r.now())
}

// Reset forgets the duplicate-detection state — a restarted station
// process delivers the next copy of every event as if it were new.
// Counters are cumulative across the restart and are not reset.
func (r *Receiver) Reset() {
	r.seen = nil
}

// now returns the receiver's clock, zero when unset (tracing off).
func (r *Receiver) now() time.Duration {
	if r.Now == nil {
		return 0
	}
	return r.Now()
}
