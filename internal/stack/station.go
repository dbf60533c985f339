// Package stack assembles a complete ETSI ITS station for the testbed:
// a link on the chosen radio backend (802.11p, C-V2X sidelink or the
// cellular Uu path), a GeoNetworking router,
// BTP dispatch, the CA, DEN and (optionally) CP basic services, and,
// where something reads one, a Local Dynamic Map — the same layering
// OpenC2X deploys on the PCEngines APU2 OBU/RSU boards of the paper.
//
// The station also models the software processing latency of the
// OpenC2X stack: each message spends a sampled per-direction delay
// between the application boundary and the radio, so end-to-end
// timestamps include realistic stack traversal times and not just
// airtime.
package stack

import (
	"fmt"
	"math/rand"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/geo"
	"itsbed/internal/its/btp"
	"itsbed/internal/its/facilities/ca"
	"itsbed/internal/its/facilities/cp"
	"itsbed/internal/its/facilities/den"
	"itsbed/internal/its/facilities/ldm"
	"itsbed/internal/its/geonet"
	"itsbed/internal/its/messages"
	"itsbed/internal/metrics"
	"itsbed/internal/radio"
	"itsbed/internal/sim"
	"itsbed/internal/trace"
	"itsbed/internal/tracing"
	"itsbed/internal/units"
)

// Role of a station.
type Role int

// Station roles.
const (
	RoleOBU Role = iota + 1
	RoleRSU
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleOBU:
		return "OBU"
	case RoleRSU:
		return "RSU"
	default:
		return "station"
	}
}

// Mobility yields the station's live position and kinematic state.
// Vehicles implement it from their physics; RSUs use StaticMobility.
type Mobility interface {
	// Position on the local plane (for the radio propagation model).
	Position() geo.Point
	// VehicleState for CAM generation (geodetic).
	VehicleState() ca.VehicleState
}

// StaticMobility is the fixed mobility of road-side equipment.
type StaticMobility struct {
	Point geo.Point
	Geo   geo.LatLon
}

// Position implements Mobility.
func (s StaticMobility) Position() geo.Point { return s.Point }

// VehicleState implements Mobility.
func (s StaticMobility) VehicleState() ca.VehicleState {
	return ca.VehicleState{Position: s.Geo}
}

// LatencyModel is the per-direction software processing latency of the
// ITS stack (facilities + networking code on the OBU/RSU board).
type LatencyModel struct {
	Mean   time.Duration
	Jitter time.Duration // uniform ± jitter
}

// sample draws one latency.
func (l LatencyModel) sample(rng *rand.Rand) time.Duration {
	d := l.Mean
	if l.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(2*l.Jitter))) - l.Jitter
	}
	if d < 0 {
		d = 0
	}
	return d
}

// DefaultOpenC2XLatency approximates the measured per-direction
// processing time of the OpenC2X stack on an APU2 board (message
// (de)serialisation, ZeroMQ hops between service processes, kernel
// socket path).
func DefaultOpenC2XLatency() LatencyModel {
	return LatencyModel{Mean: 650 * time.Microsecond, Jitter: 250 * time.Microsecond}
}

// Config parameterises a station.
type Config struct {
	Name        string
	Role        Role
	StationID   units.StationID
	StationType units.StationType
	// Frame anchors the shared local plane.
	Frame *geo.Frame
	// Mobility is required.
	Mobility Mobility
	// NTP is the clock-synchronisation error model.
	NTP clock.NTPModel
	// TxLatency and RxLatency model stack software processing; zero
	// values select DefaultOpenC2XLatency.
	TxLatency, RxLatency LatencyModel
	// DisableCAMTriggers forces 1 Hz CAMs (typical for an RSU).
	DisableCAMTriggers bool
	// DisableForwarding turns off GBC rebroadcast.
	DisableForwarding bool
	// DENMTrafficClass is the GN traffic class for DENMs (0 = highest,
	// the ETSI default). Raising it demotes DENMs to lower EDCA
	// priority — used by the channel-access ablation. CAMs always use
	// traffic class 2 (AC_BE).
	DENMTrafficClass uint8
	// EnableDCC attaches a reactive DCC controller (ETSI TS 102 687,
	// radio.DefaultReactiveProfile) to the station's radio: the
	// measured channel-busy ratio throttles CAM generation through the
	// CA facility's gate. It needs the 802.11p backend: New fails when
	// the station's link is not a *radio.Interface.
	EnableDCC bool
	// EnableCPM attaches the Collective Perception service: every
	// cp.DefaultGenInterval the station shares its fresh locally sensed
	// LDM objects in a CPM, and it fuses objects from received CPMs
	// into its LDM. CPMs ride the same traffic class as CAMs and, when
	// DCC is enabled, the same transmit gate. The service reads the
	// LDM, so New attaches one (see AttachLDM).
	EnableCPM bool
	// Sink is the instrumentation every layer of the station (router,
	// facilities, receivers, LDM, DCC) reports into under the station's
	// name: the stack_* processing-latency histograms and the other
	// layers' families, a causal span tree per message when tracing
	// (facilities → stack latency → geonet → radio and back up on the
	// receive side), and structured flight events. Pass the radio
	// backend the same sink so radio and facilities events land in one
	// ring per station.
	Sink trace.Sink
}

// Station is one assembled ITS station.
type Station struct {
	cfg    Config
	kernel *sim.Kernel
	rng    *rand.Rand

	Clock *clock.NTPClock
	// Iface is the station's 802.11p interface; nil on the other
	// backends.
	Iface  *radio.Interface
	DCC    *radio.DCC
	Router *geonet.Router
	CA     *ca.Service
	DEN    *den.Service
	CP     *cp.Service
	// LDM is the station's Local Dynamic Map, nil until AttachLDM: a
	// station that nothing queries keeps none.
	LDM *ldm.Map

	caRx  ca.Receiver
	denRx den.Receiver
	cpRx  cp.Receiver
	// rx is the frame the router is handling, for onIndication.
	rx *RxFrame
	// rxFree holds the deliveries that have fired, for reuse.
	rxFree []*rxDelivery

	// crashed gates the whole station: inbound frames are ignored and
	// cyclic services stay down until Restart.
	crashed bool
	// lastRx is the kernel time of the last CAM/DENM delivered to the
	// application — the heartbeat-freshness source for the vehicle's
	// network watchdog.
	lastRx time.Duration

	// OnCAM, if set, receives every new CAM, after the LDM (when the
	// station has one) ingested it.
	OnCAM func(*messages.CAM)
	// OnCPM, if set, receives every accepted CPM, after its objects were
	// fused into the LDM (when the station has one).
	OnCPM func(*messages.CPM)
	// OnDENM, if set, receives every new or updated DENM, after the LDM
	// (when the station has one) ingested it. It runs after the modeled
	// receive processing latency.
	OnDENM func(*messages.DENM)

	// DeliveredDENMs counts DENMs handed to the application.
	DeliveredDENMs uint64
	// DeliveredCAMs counts CAMs handed to the application.
	DeliveredCAMs uint64
	// DeliveredCPMs counts CPMs handed to the application.
	DeliveredCPMs uint64

	p trace.Probe

	mTxCAM, mTxDENM, mTxCPM, mRxCAM, mRxDENM, mRxCPM *metrics.Histogram
	mDelCAM, mDelDENM, mDelCPM                       *metrics.Counter
}

// New attaches a fully wired station to the kernel and radio backend:
// cfg.Name joins the backend at cfg.Mobility's position.
func New(kernel *sim.Kernel, backend radio.Backend, cfg Config) (*Station, error) {
	if cfg.Mobility == nil {
		return nil, fmt.Errorf("stack: station %q requires mobility", cfg.Name)
	}
	if cfg.Frame == nil {
		return nil, fmt.Errorf("stack: station %q requires a geodetic frame", cfg.Name)
	}
	if cfg.TxLatency == (LatencyModel{}) {
		cfg.TxLatency = DefaultOpenC2XLatency()
	}
	if cfg.RxLatency == (LatencyModel{}) {
		cfg.RxLatency = DefaultOpenC2XLatency()
	}
	p := cfg.Sink.Probe(cfg.Name)
	s := &Station{
		cfg:    cfg,
		kernel: kernel,
		rng:    kernel.Rand("stack." + cfg.Name),
		p:      p,
	}
	s.Clock = clock.NewNTP(clock.SourceFunc(kernel.Now), cfg.NTP, kernel.Rand("clock."+cfg.Name))
	s.mTxCAM = p.Histogram("stack_tx_latency_seconds", metrics.L("msg", "cam"))
	s.mTxDENM = p.Histogram("stack_tx_latency_seconds", metrics.L("msg", "denm"))
	s.mTxCPM = p.Histogram("stack_tx_latency_seconds", metrics.L("msg", "cpm"))
	s.mRxCAM = p.Histogram("stack_rx_latency_seconds", metrics.L("msg", "cam"))
	s.mRxDENM = p.Histogram("stack_rx_latency_seconds", metrics.L("msg", "denm"))
	s.mRxCPM = p.Histogram("stack_rx_latency_seconds", metrics.L("msg", "cpm"))
	s.mDelCAM = p.Counter("stack_delivered_total", metrics.L("msg", "cam"))
	s.mDelDENM = p.Counter("stack_delivered_total", metrics.L("msg", "denm"))
	s.mDelCPM = p.Counter("stack_delivered_total", metrics.L("msg", "cpm"))

	if backend == nil {
		return nil, fmt.Errorf("stack: station %q requires a radio backend", cfg.Name)
	}
	link, err := backend.AttachStation(cfg.Name, cfg.Mobility.Position)
	if err != nil {
		return nil, fmt.Errorf("stack: attach radio: %w", err)
	}
	s.Iface, _ = link.(*radio.Interface)
	if cfg.EnableDCC {
		if s.Iface == nil {
			return nil, fmt.Errorf("stack: station %q: DCC requires an 802.11p interface", cfg.Name)
		}
		s.DCC = radio.NewDCC(kernel, s.Iface, radio.DefaultReactiveProfile())
		s.DCC.Flight = p.Hook
	}

	router, err := geonet.NewRouter(geonet.RouterConfig{
		Frame:             cfg.Frame,
		Now:               kernel.Now,
		DisableForwarding: cfg.DisableForwarding,
		Probe:             p,
	}, link, egoAdapter{s}, s.onIndication)
	if err != nil {
		return nil, fmt.Errorf("stack: router: %w", err)
	}
	s.Router = router
	link.SetReceiver(s.OnFrame)

	s.caRx = ca.Receiver{Probe: p, Now: kernel.Now, Sink: func(c *messages.CAM) {
		if s.LDM != nil {
			s.LDM.IngestCAM(c)
		}
		s.DeliveredCAMs++
		s.lastRx = kernel.Now()
		s.mDelCAM.Inc()
		if s.OnCAM != nil {
			s.OnCAM(c)
		}
	}}
	s.denRx = den.Receiver{Probe: p, Now: kernel.Now, Sink: func(d *messages.DENM) {
		if s.LDM != nil {
			s.LDM.IngestDENM(d)
		}
		s.DeliveredDENMs++
		s.lastRx = kernel.Now()
		s.mDelDENM.Inc()
		if s.OnDENM != nil {
			s.OnDENM(d)
		}
	}}
	s.cpRx = cp.Receiver{
		OwnID: cfg.StationID,
		Frame: cfg.Frame,
		Probe: p,
		Now:   kernel.Now,
		OnCPM: func(c *messages.CPM) {
			s.DeliveredCPMs++
			s.lastRx = kernel.Now()
			s.mDelCPM.Inc()
			if s.OnCPM != nil {
				s.OnCPM(c)
			}
		},
	}

	caCfg := ca.Config{
		StationID:       cfg.StationID,
		StationType:     cfg.StationType,
		Provider:        ca.StateFunc(cfg.Mobility.VehicleState),
		Send:            s.sendCAM,
		Clock:           s.Clock,
		DisableTriggers: cfg.DisableCAMTriggers,
		Probe:           p,
	}
	if s.DCC != nil {
		caCfg.Gate = s.DCC
	}
	caSvc, err := ca.New(kernel, caCfg)
	if err != nil {
		return nil, fmt.Errorf("stack: CA service: %w", err)
	}
	s.CA = caSvc

	denSvc, err := den.New(kernel, den.Config{
		StationID:   cfg.StationID,
		StationType: cfg.StationType,
		Send:        s.sendDENM,
		Clock:       s.Clock,
		Probe:       p,
	})
	if err != nil {
		return nil, fmt.Errorf("stack: DEN service: %w", err)
	}
	s.DEN = denSvc

	if cfg.EnableCPM {
		s.AttachLDM()
		cpCfg := cp.Config{
			StationID:   cfg.StationID,
			StationType: cfg.StationType,
			Frame:       cfg.Frame,
			Position:    func() geo.LatLon { return cfg.Mobility.VehicleState().Position },
			LDM:         s.LDM,
			Send:        s.sendCPM,
			Clock:       s.Clock,
			Probe:       p,
		}
		if s.DCC != nil {
			cpCfg.Gate = s.DCC
		}
		cpSvc, err := cp.New(kernel, cpCfg)
		if err != nil {
			return nil, fmt.Errorf("stack: CP service: %w", err)
		}
		s.CP = cpSvc
	}
	return s, nil
}

// AttachLDM gives the station its Local Dynamic Map, once: from then
// on every delivered CAM and DENM, and every object of a received CPM,
// is ingested before the application hooks run. Call it before Start
// on a station whose LDM something reads (the CP service, an OpenC2X
// node, a perception feed); a station without one still counts, stamps
// and hands every message to its hooks.
func (s *Station) AttachLDM() {
	if s.LDM == nil {
		s.LDM = ldm.New(ldm.Config{Frame: s.cfg.Frame, Now: s.kernel.Now, Flight: s.p.Hook})
		s.cpRx.LDM = s.LDM
	}
}

// egoAdapter derives the GN long position vector from the station's
// mobility and clock.
type egoAdapter struct{ s *Station }

func (e egoAdapter) EgoPosition() geonet.LongPositionVector {
	st := e.s.cfg.Mobility.VehicleState()
	return geonet.LongPositionVector{
		Address:          geonet.NewAddress(e.s.cfg.StationType, e.s.cfg.StationID),
		Timestamp:        uint32(clock.TimestampIts(e.s.Clock.Now())),
		Latitude:         units.LatitudeFromDegrees(st.Position.Lat),
		Longitude:        units.LongitudeFromDegrees(st.Position.Lon),
		PositionAccurate: true,
		Speed:            uint16(units.SpeedFromMS(st.SpeedMS)),
		Heading:          units.HeadingFromRadians(st.HeadingRad),
	}
}

// Name returns the configured station name.
func (s *Station) Name() string { return s.cfg.Name }

// Start begins the cyclic services (CAM and CPM generation).
func (s *Station) Start() {
	s.CA.Start()
	if s.CP != nil {
		s.CP.Start()
	}
}

// Stop halts cyclic services and DENM repetition.
func (s *Station) Stop() {
	s.CA.Stop()
	if s.CP != nil {
		s.CP.Stop()
	}
	s.DEN.Stop()
}

// OnFrame is the station-level frame entry point, the receiver of the
// station's link: it gates the GN router behind the crash state, so a
// crashed node is deaf until Restart (the radio still physically
// receives, the process is gone). The first station to receive a
// transmission parses it into f.Decoded; every other receiver of f
// reads that parse (see RxFrame).
func (s *Station) OnFrame(f *radio.Frame) {
	if s.crashed {
		return
	}
	rx, _ := f.Decoded.(*RxFrame)
	if rx == nil {
		rx = ParseFrame(f.Bytes)
		f.Decoded = rx
	}
	if rx.Stage == StageGN {
		return // malformed frames are counted nowhere, as a real MAC would drop them
	}
	prev := s.rx
	s.rx = rx
	s.Router.OnPacket(&rx.Packet)
	s.rx = prev
}

// RxFrame is one received frame parsed down to its facilities
// message: the one receive parse of the module. The first simulated
// station to hear a transmission parses it and every other receiver
// reads that parse; the daemon's MuxServer parses each datagram once
// for all its hosted stations. The parse aliases the frame's bytes,
// which stay immutable while it is read; the decoded messages are
// copies. No reader writes to a filled field, so what the receivers
// share is read-only.
type RxFrame struct {
	// Packet is the GN packet; its payload aliases the frame.
	Packet geonet.Packet
	// Port and Body are the BTP destination port and the facilities
	// payload; btpOK is false when the packet carries no valid BTP
	// header.
	Port  uint16
	Body  []byte
	btpOK bool

	// CAM, DENM and CPM hold the message Decode found by Port: at most
	// one is set.
	CAM  *messages.CAM
	DENM *messages.DENM
	CPM  *messages.CPM
	// Stage names the layer that rejected the frame (StageGN, StageBTP,
	// or the message's StageCAM, StageDENM, StageCPM) and Err its error;
	// both are empty while the frame is well-formed.
	Stage string
	Err   error

	decoded bool
}

// The stages of the receive parse, as RxFrame.Stage names them.
const (
	StageGN   = "gn"
	StageBTP  = "btp"
	StageCAM  = "cam"
	StageDENM = "denm"
	StageCPM  = "cpm"
)

// ParseFrame parses the GN packet of frame and, when its next header is
// BTP, the BTP header. The facilities message waits for Decode.
func ParseFrame(frame []byte) *RxFrame {
	rx := &RxFrame{}
	if err := geonet.Parse(frame, &rx.Packet); err != nil {
		rx.Stage, rx.Err = StageGN, err
		return rx
	}
	var t btp.Type
	switch rx.Packet.Next {
	case geonet.NextBTPA:
		t = btp.TypeA
	case geonet.NextBTPB:
		t = btp.TypeB
	default:
		return rx
	}
	h, body, err := btp.Decode(t, rx.Packet.Payload)
	if err != nil {
		rx.Stage, rx.Err = StageBTP, err
		return rx
	}
	rx.Port, rx.Body, rx.btpOK = h.DestinationPort, body, true
	return rx
}

// Decode decodes the facilities message on first use; a frame that
// failed to parse, or whose port carries no CAM, DENM or CPM, decodes
// to nothing.
func (rx *RxFrame) Decode() {
	if rx.decoded {
		return
	}
	rx.decoded = true
	switch rx.Port {
	case btp.PortCAM:
		if rx.CAM, rx.Err = messages.DecodeCAM(rx.Body); rx.Err != nil {
			rx.Stage = StageCAM
		}
	case btp.PortDENM:
		if rx.DENM, rx.Err = messages.DecodeDENM(rx.Body); rx.Err != nil {
			rx.Stage = StageDENM
		}
	case btp.PortCPM:
		if rx.CPM, rx.Err = messages.DecodeCPM(rx.Body); rx.Err != nil {
			rx.Stage = StageCPM
		}
	}
}

// Crash models the station process dying: cyclic services and
// repetition timers stop and inbound frames are ignored.
// Application state held by the node (mailboxes) is the caller's to
// wipe. Idempotent.
func (s *Station) Crash() {
	if s.crashed {
		return
	}
	s.crashed = true
	s.Stop()
}

// Restart brings a crashed station back with empty volatile state: the
// LDM (if any) and the receivers' duplicate-detection state are lost,
// exactly as a rebooted OpenC2X process would come up blank. Cyclic
// services resume. No-op unless crashed.
func (s *Station) Restart() {
	if !s.crashed {
		return
	}
	s.crashed = false
	if s.LDM != nil {
		s.LDM.Clear()
	}
	s.denRx.Reset()
	s.Start()
}

// Crashed reports whether the station is down.
func (s *Station) Crashed() bool { return s.crashed }

// LastRx returns the kernel time of the last CAM/DENM delivered to the
// application, zero when nothing was heard yet. The vehicle's network
// watchdog reads it (through the OpenC2X node) as the connectivity
// heartbeat.
func (s *Station) LastRx() time.Duration { return s.lastRx }

// sendCAM encapsulates a CAM payload in BTP-B/GN-SHB after the tx
// processing latency.
func (s *Station) sendCAM(payload []byte) error {
	pkt, err := btp.Encode(btp.Header{Type: btp.TypeB, DestinationPort: btp.PortCAM}, payload)
	if err != nil {
		return err
	}
	d := s.cfg.TxLatency.sample(s.rng)
	s.mTxCAM.ObserveDuration(d)
	sp := s.txSpan("cam")
	s.kernel.ScheduleFn(d, func() {
		s.p.Scope(sp, func() {
			_ = s.Router.SendSHB(geonet.NextBTPB, camTrafficClass, pkt)
		})
		sp.End(s.kernel.Now())
	})
	return nil
}

// sendCPM encapsulates a CPM payload in BTP-B/GN-SHB after the tx
// processing latency. CPMs share the CAM traffic class (AC_BE).
func (s *Station) sendCPM(payload []byte) error {
	pkt, err := btp.Encode(btp.Header{Type: btp.TypeB, DestinationPort: btp.PortCPM}, payload)
	if err != nil {
		return err
	}
	d := s.cfg.TxLatency.sample(s.rng)
	s.mTxCPM.ObserveDuration(d)
	sp := s.txSpan("cpm")
	s.kernel.ScheduleFn(d, func() {
		s.p.Scope(sp, func() {
			_ = s.Router.SendSHB(geonet.NextBTPB, camTrafficClass, pkt)
		})
		sp.End(s.kernel.Now())
	})
	return nil
}

// txSpan opens the stack tx-latency span as a child of the caller's
// context (the facilities encode span).
func (s *Station) txSpan(msg string) *tracing.Span {
	sp := s.p.Start("stack.tx", "stack", s.kernel.Now())
	sp.SetAttr("msg", msg)
	return sp
}

// GN traffic classes of the facilities messages (ETSI TS 102 636-4-2
// profile: DENM at the highest class, CAM at class 2).
const camTrafficClass geonet.TrafficClass = 2

// sendDENM encapsulates a DENM payload in BTP-B/GN-GBC to the event
// area after the tx processing latency. DENMs go out at the highest
// EDCA priority.
func (s *Station) sendDENM(payload []byte, area den.Area) error {
	pkt, err := btp.Encode(btp.Header{Type: btp.TypeB, DestinationPort: btp.PortDENM}, payload)
	if err != nil {
		return err
	}
	gnArea := geonet.CircleAround(
		units.LatitudeFromDegrees(area.Centre.Lat),
		units.LongitudeFromDegrees(area.Centre.Lon),
		area.RadiusMetres,
	)
	d := s.cfg.TxLatency.sample(s.rng)
	s.mTxDENM.ObserveDuration(d)
	sp := s.txSpan("denm")
	s.kernel.ScheduleFn(d, func() {
		s.p.Scope(sp, func() {
			_ = s.Router.SendGBC(geonet.NextBTPB, geonet.TrafficClass(s.cfg.DENMTrafficClass), gnArea, time.Minute, pkt)
		})
		sp.End(s.kernel.Now())
	})
	return nil
}

// onIndication dispatches the packet the router delivers, s.rx, by
// BTP port after the rx processing latency. The indication carries
// s.rx's GN payload, whose BTP header s.rx already holds.
func (s *Station) onIndication(geonet.Indication) {
	rx := s.rx
	if !rx.btpOK {
		return
	}
	delay := s.cfg.RxLatency.sample(s.rng)
	var sp *tracing.Span
	switch rx.Port {
	case btp.PortCAM:
		s.mRxCAM.ObserveDuration(delay)
		sp = s.rxSpan("cam")
	case btp.PortDENM:
		s.mRxDENM.ObserveDuration(delay)
		sp = s.rxSpan("denm")
	case btp.PortCPM:
		s.mRxCPM.ObserveDuration(delay)
		sp = s.rxSpan("cpm")
	default:
		return
	}
	var d *rxDelivery
	if n := len(s.rxFree); n > 0 {
		d = s.rxFree[n-1]
		s.rxFree = s.rxFree[:n-1]
	} else {
		d = &rxDelivery{s: s}
		d.fireFn, d.dispatchFn = d.fire, d.dispatch
	}
	d.rx, d.sp = rx, sp
	s.kernel.ScheduleFn(delay, d.fireFn)
}

// rxDelivery is one packet on its way to the facilities through the
// rx processing latency. A station reuses the deliveries that have
// fired, and binds fire and dispatch once per delivery, so a delivery
// costs no closure.
type rxDelivery struct {
	s                  *Station
	rx                 *RxFrame
	sp                 *tracing.Span
	fireFn, dispatchFn func()
}

// fire decodes the message, hands it to its receiver inside the
// delivery's span and returns d to the station's free list.
func (d *rxDelivery) fire() {
	s := d.s
	d.rx.Decode()
	s.p.Scope(d.sp, d.dispatchFn)
	d.sp.End(s.kernel.Now())
	d.rx, d.sp = nil, nil
	s.rxFree = append(s.rxFree, d)
}

// dispatch hands the decoded message to the receiver of its port.
func (d *rxDelivery) dispatch() {
	rx := d.rx
	switch rx.Port {
	case btp.PortCAM:
		d.s.caRx.OnDecoded(rx.CAM, rx.Err)
	case btp.PortDENM:
		d.s.denRx.OnDecoded(rx.DENM, rx.Err)
	case btp.PortCPM:
		d.s.cpRx.OnDecoded(rx.CPM, rx.Err)
	}
}

// rxSpan opens the stack rx-latency span as a child of the caller's
// context (the geonet receive span).
func (s *Station) rxSpan(msg string) *tracing.Span {
	sp := s.p.Start("stack.rx", "stack", s.kernel.Now())
	sp.SetAttr("msg", msg)
	return sp
}

// Probe returns the station's instrumentation handle.
func (s *Station) Probe() trace.Probe { return s.p }

// CPReceiverStats reports CP reception and fusion counters.
func (s *Station) CPReceiverStats() (received, malformed, fused, stale uint64) {
	return s.cpRx.Received, s.cpRx.Malformed, s.cpRx.ObjectsFused, s.cpRx.ObjectsStale
}
