package geonet

import (
	"fmt"
	"time"

	"itsbed/internal/geo"
	"itsbed/internal/metrics"
	"itsbed/internal/trace"
	"itsbed/internal/tracing"
)

// LinkLayer abstracts the access layer below GeoNetworking: the
// simulated 802.11p interface, or a UDP socket in the daemons.
type LinkLayer interface {
	// SendBroadcast queues frame for broadcast transmission.
	SendBroadcast(frame []byte) error
}

// PriorityLink is an optional LinkLayer extension for EDCA-capable
// access layers: the router maps the GN traffic class (0 = highest)
// to a link priority so DENMs contend ahead of CAMs.
type PriorityLink interface {
	SendBroadcastPriority(frame []byte, priority uint8) error
}

// send dispatches a frame at the given traffic class, using the
// priority path when the link supports it.
func (r *Router) send(frame []byte, tc TrafficClass) error {
	if pl, ok := r.link.(PriorityLink); ok {
		return pl.SendBroadcastPriority(frame, uint8(tc)&3)
	}
	return r.link.SendBroadcast(frame)
}

// EgoPositionProvider yields the router's own current position vector;
// on a vehicle this is fed by the navigation stack, on an RSU it is
// static.
type EgoPositionProvider interface {
	EgoPosition() LongPositionVector
}

// Indication is a received upper-layer packet delivered to BTP.
type Indication struct {
	Next    NextHeader
	Type    HeaderType
	Source  LongPositionVector
	Payload []byte
	// Hops is how many times the packet was forwarded before arriving.
	Hops uint8
}

// Handler consumes received indications.
type Handler func(Indication)

// RouterConfig parameterises a GN router.
type RouterConfig struct {
	// Frame anchors geodetic coordinates for area tests.
	Frame *geo.Frame
	// Now yields virtual (or wall) time for duplicate-record lifetimes.
	Now func() time.Duration
	// DefaultHopLimit for GBC packets; 0 selects the standard default.
	DefaultHopLimit uint8
	// DisableForwarding turns off GBC rebroadcast (single-hop setups
	// such as the paper's lab need none).
	DisableForwarding bool
	// Probe receives the station's geonet_* counters and, when tracing,
	// per-packet send/receive spans; duplicate and out-of-area
	// receptions end with a drop_reason.
	Probe trace.Probe
}

// Router implements GN packet handling for one station: sending SHB
// and GBC packets, receiving, duplicate filtering, delivering to the
// upper layer, and simple constrained rebroadcast of GBC packets when
// the station lies inside the destination area.
type Router struct {
	cfg     RouterConfig
	link    LinkLayer
	ego     EgoPositionProvider
	handler Handler
	table   *LocationTable
	seq     uint16

	// Counters for diagnostics and tests.
	Sent            uint64
	Received        uint64
	Duplicates      uint64
	Forwarded       uint64
	OutOfArea       uint64
	BeaconsReceived uint64

	mSent, mRecv, mDup, mFwd, mOOA, mBeacon *metrics.Counter
}

// NewRouter builds a router. All arguments are required except that
// handler may be nil (packets are then counted but dropped).
func NewRouter(cfg RouterConfig, link LinkLayer, ego EgoPositionProvider, handler Handler) (*Router, error) {
	if cfg.Frame == nil {
		return nil, fmt.Errorf("geonet: router requires a geodetic frame")
	}
	if cfg.Now == nil {
		return nil, fmt.Errorf("geonet: router requires a time source")
	}
	if link == nil || ego == nil {
		return nil, fmt.Errorf("geonet: router requires link layer and ego position provider")
	}
	if cfg.DefaultHopLimit == 0 {
		cfg.DefaultHopLimit = DefaultHopLimit
	}
	r := &Router{
		cfg:     cfg,
		link:    link,
		ego:     ego,
		handler: handler,
		table:   NewLocationTable(),
	}
	p := cfg.Probe
	r.mSent = p.Counter("geonet_sent_total")
	r.mRecv = p.Counter("geonet_received_total")
	r.mDup = p.Counter("geonet_duplicates_dropped_total")
	r.mFwd = p.Counter("geonet_forwarded_total")
	r.mOOA = p.Counter("geonet_out_of_area_total")
	r.mBeacon = p.Counter("geonet_beacons_received_total")
	return r, nil
}

// SendSHB broadcasts payload as a single-hop broadcast (used for CAM).
func (r *Router) SendSHB(next NextHeader, tc TrafficClass, payload []byte) error {
	p := &Packet{
		Version:           CurrentVersion,
		Lifetime:          Lifetime{Multiplier: 1, Base: 1}, // 1 s
		RemainingHopLimit: 1,
		Next:              next,
		Type:              HeaderTypeTSB,
		Subtype:           SubtypeSHB,
		TrafficClass:      tc,
		MaxHopLimit:       1,
		Source:            r.ego.EgoPosition(),
		Payload:           payload,
	}
	frame, err := p.Marshal()
	if err != nil {
		return fmt.Errorf("geonet: marshal SHB: %w", err)
	}
	r.Sent++
	r.mSent.Inc()
	sp := r.cfg.Probe.Start("geonet.send", "geonet", r.cfg.Now())
	sp.SetAttr("type", "shb")
	var sendErr error
	r.cfg.Probe.Scope(sp, func() { sendErr = r.send(frame, tc) })
	sp.End(r.cfg.Now())
	return sendErr
}

// SendGBC broadcasts payload to the destination area (used for DENM).
func (r *Router) SendGBC(next NextHeader, tc TrafficClass, area Area, lifetime time.Duration, payload []byte) error {
	r.seq++
	p := &Packet{
		Version:           CurrentVersion,
		Lifetime:          LifetimeFrom(lifetime),
		RemainingHopLimit: r.cfg.DefaultHopLimit,
		Next:              next,
		Type:              HeaderTypeGBC,
		TrafficClass:      tc,
		MaxHopLimit:       r.cfg.DefaultHopLimit,
		Source:            r.ego.EgoPosition(),
		SequenceNumber:    r.seq,
		DestArea:          area,
		Payload:           payload,
	}
	frame, err := p.Marshal()
	if err != nil {
		return fmt.Errorf("geonet: marshal GBC: %w", err)
	}
	// Record own packet so an echo or a forwarded copy is not
	// re-delivered locally.
	now := r.cfg.Now()
	r.table.IsDuplicate(p.Source.Address, p.SequenceNumber, p.Lifetime.Duration(), now)
	r.Sent++
	r.mSent.Inc()
	sp := r.cfg.Probe.Start("geonet.send", "geonet", now)
	sp.SetAttr("type", "gbc")
	sp.SetAttr("gn_seq", fmt.Sprintf("%d", p.SequenceNumber))
	// Bind the GN identity (source address + sequence) so a receiver
	// without synchronous context can re-attach to this tree.
	r.cfg.Probe.Bind(tracing.KeyGBC(p.Source.Address.String(), p.SequenceNumber), sp)
	var sendErr error
	r.cfg.Probe.Scope(sp, func() { sendErr = r.send(frame, tc) })
	sp.End(r.cfg.Now())
	return sendErr
}

// OnPacket processes one parsed packet arriving from the link layer.
// The router only reads p: every receiver of one radio frame may be
// handed the same parse (see Parse). The indication's payload aliases
// p.Payload.
func (r *Router) OnPacket(p *Packet) {
	now := r.cfg.Now()
	switch p.Type {
	case HeaderTypeBeacon:
		// Beacons from other stacks are only counted; this router
		// sends none.
		r.BeaconsReceived++
		r.mBeacon.Inc()
	case HeaderTypeTSB:
		r.Received++
		r.mRecv.Inc()
		sp := r.cfg.Probe.Start("geonet.receive", "geonet", now)
		sp.SetAttr("type", "shb")
		r.cfg.Probe.Scope(sp, func() { r.deliver(p) })
		sp.End(r.cfg.Now())
	case HeaderTypeGBC:
		sp := r.rxSpan(p, now)
		if r.table.IsDuplicate(p.Source.Address, p.SequenceNumber, p.Lifetime.Duration(), now) {
			r.Duplicates++
			r.mDup.Inc()
			sp.Drop(now, "duplicate")
			return
		}
		ego := r.ego.EgoPosition()
		inside := p.DestArea.Contains(r.cfg.Frame, ego.Latitude, ego.Longitude)
		if inside {
			r.Received++
			r.mRecv.Inc()
			r.cfg.Probe.Scope(sp, func() { r.deliver(p) })
		} else {
			r.OutOfArea++
			r.mOOA.Inc()
			sp.Drop(now, "out_of_area")
		}
		// Simplified area forwarding: stations inside the destination
		// area rebroadcast while hops remain, so the warning floods
		// the region of interest (EN 302 636-4-1 simple GeoBroadcast
		// forwarding algorithm).
		if inside && !r.cfg.DisableForwarding && p.RemainingHopLimit > 1 {
			fwd := *p
			fwd.RemainingHopLimit--
			if frame, err := fwd.Marshal(); err == nil {
				r.Forwarded++
				r.mFwd.Inc()
				sp.SetAttr("forwarded", "true")
				r.cfg.Probe.Scope(sp, func() { _ = r.send(frame, p.TrafficClass) })
			}
		}
		if inside {
			sp.End(r.cfg.Now())
		}
	}
}

// rxSpan opens the receive span for a GBC packet: under the sender's
// airtime span when reception is synchronous (the simulated medium),
// else re-attached by the GN source address + sequence identity.
func (r *Router) rxSpan(p *Packet, now time.Duration) *tracing.Span {
	if !r.cfg.Probe.Tracing() {
		return nil
	}
	parent := r.cfg.Probe.Current()
	if parent == nil {
		parent = r.cfg.Probe.Find(tracing.KeyGBC(p.Source.Address.String(), p.SequenceNumber))
	}
	sp := r.cfg.Probe.StartChild(parent, "geonet.receive", "geonet", now)
	sp.SetAttr("type", "gbc")
	sp.SetAttr("gn_seq", fmt.Sprintf("%d", p.SequenceNumber))
	return sp
}

func (r *Router) deliver(p *Packet) {
	if r.handler == nil {
		return
	}
	hops := uint8(0)
	if p.MaxHopLimit > p.RemainingHopLimit {
		hops = p.MaxHopLimit - p.RemainingHopLimit
	}
	r.handler(Indication{
		Next:    p.Next,
		Type:    p.Type,
		Source:  p.Source,
		Payload: p.Payload,
		Hops:    hops,
	})
}
