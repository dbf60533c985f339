// Package cp implements a Collective Perception basic service shaped
// after ETSI TS 103 324: cyclic CPM generation that shares the
// station's fresh locally sensed LDM objects, and reception handling
// that fuses remotely perceived objects into the local LDM.
//
// Ownership rule: a station only ever encodes objects its own sensors
// produced (ldm.SourceLocalSensor). Objects learned from CAMs or fused
// from other stations' CPMs are second-hand and are never re-shared,
// so perception cannot echo around the network. Generation sits under
// the same TxGate as the CA service, so DCC channel-load control
// throttles CPMs exactly like CAMs.
package cp

import (
	"fmt"
	"math"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/flight"
	"itsbed/internal/geo"
	"itsbed/internal/its/facilities/ldm"
	"itsbed/internal/its/messages"
	"itsbed/internal/metrics"
	"itsbed/internal/sim"
	"itsbed/internal/trace"
	"itsbed/internal/tracing"
	"itsbed/internal/units"
)

// DefaultGenInterval is the cyclic CPM generation period. TS 103 324
// bounds T_GenCpm to [100 ms, 1000 ms]; the testbed's 4 Hz camera makes
// 250 ms the natural rate.
const DefaultGenInterval = 250 * time.Millisecond

// SendFunc transmits an encoded CPM through the lower layers
// (BTP port 2009 over GN SHB).
type SendFunc func(payload []byte) error

// TxGate throttles CPM generation: MinInterval returns the minimum
// allowed gap since the previous CPM. The station's DCC controller
// implements it, so congestion control covers collective perception
// exactly like cooperative awareness.
type TxGate interface {
	MinInterval() time.Duration
}

// Config parameterises the CP service.
type Config struct {
	StationID   units.StationID
	StationType units.StationType
	// Frame converts the LDM's local-plane object positions to the
	// relative coordinates on the wire; required.
	Frame *geo.Frame
	// Position yields the station's current geodetic reference
	// position (the anchor of the perceived objects' offsets);
	// required.
	Position func() geo.LatLon
	// LDM supplies the station's own perception; required.
	LDM *ldm.Map
	// Send transmits encoded CPMs; required.
	Send SendFunc
	// Clock provides ITS timestamps; required.
	Clock *clock.NTPClock
	// Gate, when non-nil, throttles generation to at most one CPM per
	// Gate.MinInterval() (DCC channel-load control).
	Gate TxGate
	// Probe receives the station's cpm_* counters, a span for each
	// generated CPM and a cpm.tx flight event per generated CPM
	// carrying the perceived-object count.
	Probe trace.Probe
}

// Service is the CP basic service of one station.
type Service struct {
	cfg    Config
	kernel *sim.Kernel
	ticker *sim.Ticker

	lastGen time.Duration
	hasLast bool

	// Generated counts CPMs produced.
	Generated uint64
	// ObjectsShared counts perceived objects encoded across all CPMs.
	ObjectsShared uint64
	// SendErrors counts lower-layer send failures.
	SendErrors uint64

	mGen, mObj, mErr *metrics.Counter
}

// New creates a CP service. Start must be called to begin generation.
func New(kernel *sim.Kernel, cfg Config) (*Service, error) {
	if cfg.Frame == nil || cfg.Position == nil || cfg.LDM == nil || cfg.Send == nil || cfg.Clock == nil {
		return nil, fmt.Errorf("cp: frame, position, ldm, send and clock are required")
	}
	s := &Service{cfg: cfg, kernel: kernel}
	s.mGen = cfg.Probe.Counter("cpm_generated_total")
	s.mObj = cfg.Probe.Counter("cpm_objects_shared_total")
	s.mErr = cfg.Probe.Counter("cpm_send_errors_total")
	return s, nil
}

// Start begins the generation cycle.
func (s *Service) Start() {
	if s.ticker != nil {
		return
	}
	s.ticker = s.kernel.Every(DefaultGenInterval, DefaultGenInterval, s.check)
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
	if s.cfg.Gate != nil && s.hasLast {
		if g := s.cfg.Gate.MinInterval(); g > DefaultGenInterval && now-s.lastGen < g {
			return
		}
	}
	own := s.cfg.LDM.LocalPerception()
	if len(own) == 0 {
		return // nothing perceived, nothing to share
	}
	s.generate(now, own)
}

func (s *Service) generate(now time.Duration, own []ldm.Object) {
	ts := clock.TimestampIts(s.cfg.Clock.Now())
	cpm := messages.NewCPM(s.cfg.StationID, units.DeltaTimeFromTimestamp(ts))
	refGeo := s.cfg.Position()
	refLocal := s.cfg.Frame.ToLocal(refGeo)
	cpm.Management = messages.CpmManagementContainer{
		StationType: s.cfg.StationType,
		Position: messages.ReferencePosition{
			Latitude:             units.LatitudeFromDegrees(refGeo.Lat),
			Longitude:            units.LongitudeFromDegrees(refGeo.Lon),
			SemiMajorConfidence:  units.SemiAxisFromMetres(0.05),
			SemiMinorConfidence:  units.SemiAxisFromMetres(0.05),
			AltitudeValue:        messages.AltitudeUnavailable,
			SemiMajorOrientation: 0,
		},
	}
	for i := range own {
		o := &own[i]
		po, ok := encodeObject(o, refLocal, now)
		if !ok {
			continue // outside the wire's relative-coordinate range
		}
		cpm.PerceivedObjects = append(cpm.PerceivedObjects, po)
		if len(cpm.PerceivedObjects) == messages.MaxPerceivedObjects {
			break
		}
	}
	if len(cpm.PerceivedObjects) == 0 {
		return
	}
	sp := s.cfg.Probe.Start("cpm.generate", "facilities", now)
	sp.SetAttr("objects", fmt.Sprint(len(cpm.PerceivedObjects)))
	payload, err := cpm.Encode()
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
	s.ObjectsShared += uint64(len(cpm.PerceivedObjects))
	s.mGen.Inc()
	s.mObj.Add(uint64(len(cpm.PerceivedObjects)))
	s.cfg.Probe.Record(now, flight.CPMTx, 0, int64(len(cpm.PerceivedObjects)), 0)
	s.lastGen = now
	s.hasLast = true
}

// encodeObject converts one LDM object to its wire form relative to
// the reference position. Objects beyond the DistanceValue range
// (>~1.3 km) cannot be represented and are skipped.
func encodeObject(o *ldm.Object, refLocal geo.Point, now time.Duration) (messages.PerceivedObject, bool) {
	dx := int64(math.Round((o.Position.X - refLocal.X) * 100))
	dy := int64(math.Round((o.Position.Y - refLocal.Y) * 100))
	if dx < messages.ObjectDistanceMin || dx > messages.ObjectDistanceMax ||
		dy < messages.ObjectDistanceMin || dy > messages.ObjectDistanceMax {
		return messages.PerceivedObject{}, false
	}
	tom := int64((o.Updated - now) / time.Millisecond)
	if tom < messages.TimeOfMeasurementMin {
		tom = messages.TimeOfMeasurementMin
	}
	if tom > 0 {
		tom = 0
	}
	v := geo.HeadingVector(o.HeadingRad).Scale(o.SpeedMS * 100)
	return messages.PerceivedObject{
		ObjectID:          o.ObjectID,
		TimeOfMeasurement: int16(tom),
		XDistance:         int32(dx),
		YDistance:         int32(dy),
		XSpeed:            clampSpeed(v.X),
		YSpeed:            clampSpeed(v.Y),
		Class:             classFor(o),
		Confidence:        messages.ConfidenceUnavailable,
	}, true
}

func clampSpeed(cms float64) int16 {
	v := int64(math.Round(cms))
	if v < messages.ObjectSpeedMin {
		v = messages.ObjectSpeedMin
	}
	if v > messages.ObjectSpeedMax {
		v = messages.ObjectSpeedMax
	}
	return int16(v)
}

// classFor maps an LDM object's station type onto the CPM object
// class.
func classFor(o *ldm.Object) messages.ObjectClass {
	switch o.StationType {
	case units.StationTypePedestrian:
		return messages.ObjectClassPerson
	case units.StationTypeCyclist, units.StationTypeMoped, units.StationTypeMotorcycle,
		units.StationTypePassengerCar, units.StationTypeBus, units.StationTypeLightTruck,
		units.StationTypeHeavyTruck, units.StationTypeTrailer, units.StationTypeSpecialVehicle,
		units.StationTypeTram:
		return messages.ObjectClassVehicle
	case units.StationTypeUnknown:
		return messages.ObjectClassUnknown
	default:
		return messages.ObjectClassOther
	}
}

// stationTypeFor inverts classFor on the receive side.
func stationTypeFor(c messages.ObjectClass) units.StationType {
	switch c {
	case messages.ObjectClassPerson:
		return units.StationTypePedestrian
	case messages.ObjectClassVehicle:
		return units.StationTypePassengerCar
	default:
		return units.StationTypeUnknown
	}
}

// Receiver handles incoming CPMs: decode, fuse every perceived object
// into the LDM, and optionally notify the application.
type Receiver struct {
	// OwnID drops this station's own CPMs (forwarded echoes).
	OwnID units.StationID
	// Frame converts wire coordinates back to the local plane;
	// required for fusion.
	Frame *geo.Frame
	// LDM receives the fused objects.
	LDM *ldm.Map
	// OnCPM, if set, observes every accepted CPM after fusion.
	OnCPM func(*messages.CPM)
	// Probe receives the station's cpm_rx_* counters, a span for each
	// received CPM and a cpm.rx flight event per decoded (or
	// malformed) CPM.
	Probe trace.Probe
	// Now supplies fusion timestamps; required.
	Now func() time.Duration

	// Received counts successfully decoded CPMs.
	Received uint64
	// Malformed counts undecodable payloads.
	Malformed uint64
	// ObjectsFused counts perceived objects accepted into the LDM.
	ObjectsFused uint64
	// ObjectsStale counts perceived objects rejected as stale.
	ObjectsStale uint64

	mRecv, mMalf, mFused, mStale *metrics.Counter
}

// OnDecoded processes one received CPM, or the error its decode
// returned. cpm is read-only: the stations that heard one frame share
// its decode, and OnCPM may retain it.
func (r *Receiver) OnDecoded(cpm *messages.CPM, err error) {
	if r.mRecv == nil {
		r.mRecv = r.Probe.Counter("cpm_rx_received_total")
		r.mMalf = r.Probe.Counter("cpm_rx_malformed_total")
		r.mFused = r.Probe.Counter("cpm_objects_fused_total")
		r.mStale = r.Probe.Counter("cpm_objects_stale_total")
	}
	now := r.now()
	if err != nil {
		r.Probe.Start("cpm.receive", "facilities", now).Drop(now, "malformed")
		r.Malformed++
		r.mMalf.Inc()
		r.Probe.Record(now, flight.CPMRx, flight.RxMalformed, 0, 0)
		return
	}
	if cpm.Header.StationID == r.OwnID {
		return // own perception coming back around
	}
	var sp *tracing.Span
	if r.Probe.Tracing() {
		sp = r.Probe.Start("cpm.receive", "facilities", now)
		sp.SetAttr("objects", fmt.Sprint(len(cpm.PerceivedObjects)))
	}
	r.Received++
	r.mRecv.Inc()
	r.Probe.Record(now, flight.CPMRx, flight.RxOK, int64(cpm.Header.StationID), 0)
	r.Probe.Scope(sp, func() { r.fuse(cpm, now) })
	sp.End(r.now())
}

// fuse folds every perceived object of one CPM into the LDM.
func (r *Receiver) fuse(cpm *messages.CPM, now time.Duration) {
	if r.LDM != nil && r.Frame != nil {
		refLocal := r.Frame.ToLocal(geo.LatLon{
			Lat: cpm.Management.Position.Latitude.Degrees(),
			Lon: cpm.Management.Position.Longitude.Degrees(),
		})
		for i := range cpm.PerceivedObjects {
			po := &cpm.PerceivedObjects[i]
			pos := geo.Point{
				X: refLocal.X + float64(po.XDistance)/100,
				Y: refLocal.Y + float64(po.YDistance)/100,
			}
			v := geo.Vector{X: float64(po.XSpeed) / 100, Y: float64(po.YSpeed) / 100}
			// The measurement's age rides in TimeOfMeasurement; the
			// transit delay adds on top but is not knowable without the
			// remote clock, so arrival time anchors the estimate.
			measured := now + time.Duration(po.TimeOfMeasurement)*time.Millisecond
			if measured < 0 {
				measured = 0
			}
			ok := r.LDM.IngestCPMObject(
				cpm.Header.StationID, po.ObjectID, stationTypeFor(po.Class),
				po.Class.String(), pos, v.Norm(), v.Heading(), measured,
			)
			if ok {
				r.ObjectsFused++
				r.mFused.Inc()
			} else {
				r.ObjectsStale++
				r.mStale.Inc()
			}
		}
	}
	if r.OnCPM != nil {
		r.OnCPM(cpm)
	}
}

func (r *Receiver) now() time.Duration {
	if r.Now == nil {
		return 0
	}
	return r.Now()
}
