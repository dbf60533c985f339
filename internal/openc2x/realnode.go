package openc2x

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/flight"
	"itsbed/internal/geo"
	"itsbed/internal/its/btp"
	"itsbed/internal/its/geonet"
	"itsbed/internal/its/messages"
	"itsbed/internal/metrics"
	"itsbed/internal/stack"
	"itsbed/internal/trace"
	"itsbed/internal/tracing"
	"itsbed/internal/units"
)

// RealNode is one wall-clock OpenC2X station hosted by a MuxServer
// (the rsud/obud daemons): it speaks the same GN/BTP/facilities wire
// format as the simulated stack, but over a real datagram link (UDP
// standing in for the 802.11p air interface between two lab machines).
type RealNode struct {
	mu sync.Mutex

	stationID   units.StationID
	stationType units.StationType
	position    geo.LatLon
	frame       *geo.Frame
	link        DatagramLink
	start       time.Time
	seq         uint16
	mailboxCap  int
	logger      *slog.Logger

	// mailbox is a ring of undelivered DENMs, the oldest at head and
	// count deep. It is allocated at MailboxCap entries on the first
	// delivery, and a full one evicts by overwriting its head; only an
	// unbounded (negative) cap grows it.
	mailbox     []mailboxEntry
	head, count int

	// p reports into the daemon's registry (the /metrics endpoint), the
	// node's own tracer and the daemon's black-box recorder behind
	// /debug/flight. Spans and events are stamped on the wall clock
	// (offsets from start); finished traces move out of the tracer
	// into ring, which backs /trace.
	p    trace.Probe
	ring *tracing.Ring

	// The counters below are cached openc2x_* families of the daemon's
	// registry. Frames are delivered on the link's read-loop goroutine
	// while HTTP handlers run, so everything is atomic underneath.
	received *metrics.Counter
	denms    *metrics.Counter
	cams     *metrics.Counter
	triggers *metrics.Counter
	polls    *metrics.Counter
	dropped  *metrics.Counter
	depthMax *metrics.Gauge
}

// mailboxEntry is one undelivered DENM and its open openc2x.mailbox
// span, ended when a poll drains the entry.
type mailboxEntry struct {
	rd   ReceivedDENM
	span *tracing.Span
}

// DatagramLink is the transport of a RealNode.
type DatagramLink interface {
	SendBroadcast(frame []byte) error
}

// DefaultMailboxCap bounds the per-station DENM mailbox when the
// config leaves MailboxCap zero. A client that never polls
// /request_denm can then pin at most this many undelivered DENMs
// (drop-oldest beyond it) instead of growing daemon memory without
// bound.
const DefaultMailboxCap = 256

// RealNodeConfig parameterises a RealNode.
type RealNodeConfig struct {
	StationID   units.StationID
	StationType units.StationType
	Position    geo.LatLon
	Link        DatagramLink
	// Logger, when non-nil, receives per-message debug records and
	// operational events; defaults to a discarding logger.
	Logger *slog.Logger
	// MailboxCap bounds the undelivered-DENM mailbox: at capacity the
	// oldest entry is evicted (counted in openc2x_mailbox_dropped_total
	// and flight-recorded). Zero selects DefaultMailboxCap; negative
	// disables the bound.
	MailboxCap int
	// Sink's registry and flight recorder are the ones the node
	// instruments into: the MuxServer shares them across every hosted
	// station so the metrics aggregate stays O(families), not
	// O(stations). The node records flight events under its station ID,
	// from every goroutine that calls it, so a recorder here must come
	// from flight.NewLockedRecorder.
	// Spans always go to a tracer of the node's own, whose finished
	// traces feed /trace; Sink.Tracer is not used.
	Sink trace.Sink
}

// NewRealNode builds a node. The MuxServer hosting it decodes received
// frames and delivers them to the node.
func NewRealNode(cfg RealNodeConfig) (*RealNode, error) {
	if cfg.Link == nil {
		return nil, fmt.Errorf("openc2x: real node requires a link")
	}
	frame, err := geo.NewFrame(cfg.Position)
	if err != nil {
		return nil, fmt.Errorf("openc2x: %w", err)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	sink := trace.Sink{Metrics: cfg.Sink.Metrics, Tracer: tracing.New(), Flight: cfg.Sink.Flight}
	reg := sink.Metrics
	cap := cfg.MailboxCap
	if cap == 0 {
		cap = DefaultMailboxCap
	}
	return &RealNode{
		stationID:   cfg.StationID,
		stationType: cfg.StationType,
		position:    cfg.Position,
		frame:       frame,
		link:        cfg.Link,
		start:       time.Now(),
		mailboxCap:  cap,
		logger:      logger,
		p:           sink.Probe(strconv.FormatUint(uint64(cfg.StationID), 10)),
		ring:        tracing.NewRing(64),
		received:    reg.Counter("openc2x_frames_received_total"),
		denms:       reg.Counter("openc2x_denms_received_total"),
		cams:        reg.Counter("openc2x_cams_received_total"),
		triggers:    reg.Counter("openc2x_triggers_total"),
		polls:       reg.Counter("openc2x_polls_total"),
		dropped:     reg.Counter("openc2x_mailbox_dropped_total"),
		depthMax:    reg.Gauge("openc2x_mailbox_depth_max"),
	}, nil
}

func (n *RealNode) nowITS() uint64 {
	return uint64(time.Since(clock.ITSEpoch) / time.Millisecond)
}

func (n *RealNode) ego() geonet.LongPositionVector {
	return geonet.LongPositionVector{
		Address:          geonet.NewAddress(n.stationType, n.stationID),
		Timestamp:        uint32(n.nowITS()),
		Latitude:         units.LatitudeFromDegrees(n.position.Lat),
		Longitude:        units.LongitudeFromDegrees(n.position.Lon),
		PositionAccurate: true,
	}
}

// TriggerDENM implements the trigger_denm semantics synchronously.
func (n *RealNode) TriggerDENM(req TriggerRequest) (messages.ActionID, error) {
	n.mu.Lock()
	n.seq++
	id := messages.ActionID{OriginatingStationID: n.stationID, SequenceNumber: n.seq}
	n.mu.Unlock()
	n.triggers.Inc()

	aid := actionIDString(id)
	sp := n.p.Start("openc2x.trigger_denm", "openc2x", time.Since(n.start))
	sp.SetAttr("action_id", aid)
	defer func() {
		sp.End(time.Since(n.start))
		n.retire(sp)
	}()
	if n.logger.Enabled(context.Background(), slog.LevelDebug) {
		n.logger.Debug("trigger_denm", "action_id", aid, "cause", req.CauseCode, "sub_cause", req.SubCauseCode)
	}

	now := n.nowITS()
	d := messages.NewDENM(n.stationID)
	validity := req.ValiditySeconds
	if validity == 0 {
		validity = messages.DefaultValidityDuration
	}
	d.Management = messages.ManagementContainer{
		ActionID:      id,
		DetectionTime: now,
		ReferenceTime: now,
		EventPosition: messages.ReferencePosition{
			Latitude:      units.LatitudeFromDegrees(req.Latitude),
			Longitude:     units.LongitudeFromDegrees(req.Longitude),
			AltitudeValue: messages.AltitudeUnavailable,
		},
		ValidityDuration: &validity,
		StationType:      n.stationType,
	}
	d.Situation = &messages.SituationContainer{
		InformationQuality: messages.InformationQuality(req.Quality),
		EventType: messages.EventType{
			CauseCode:    messages.CauseCode(req.CauseCode),
			SubCauseCode: messages.SubCauseCode(req.SubCauseCode),
		},
	}
	d.Location = &messages.LocationContainer{Traces: []messages.Trace{{}}}
	payload, err := d.Encode()
	if err != nil {
		sp.Drop(time.Since(n.start), "encode_error")
		return id, fmt.Errorf("openc2x: encode DENM: %w", err)
	}
	pkt, err := btp.Encode(btp.Header{Type: btp.TypeB, DestinationPort: btp.PortDENM}, payload)
	if err != nil {
		sp.Drop(time.Since(n.start), "encode_error")
		return id, err
	}
	radius := req.RadiusMetres
	if radius == 0 {
		radius = 200
	}
	gn := &geonet.Packet{
		Version:           geonet.CurrentVersion,
		Lifetime:          geonet.DefaultLifetime,
		RemainingHopLimit: geonet.DefaultHopLimit,
		Next:              geonet.NextBTPB,
		Type:              geonet.HeaderTypeGBC,
		MaxHopLimit:       geonet.DefaultHopLimit,
		Source:            n.ego(),
		SequenceNumber:    id.SequenceNumber,
		DestArea: geonet.CircleAround(
			units.LatitudeFromDegrees(req.Latitude),
			units.LongitudeFromDegrees(req.Longitude),
			radius,
		),
		Payload: pkt,
	}
	frame, err := gn.Marshal()
	if err != nil {
		sp.Drop(time.Since(n.start), "encode_error")
		return id, fmt.Errorf("openc2x: marshal GN: %w", err)
	}
	if err := n.link.SendBroadcast(frame); err != nil {
		sp.Drop(time.Since(n.start), "send_error")
		return id, err
	}
	n.p.Record(time.Since(n.start), flight.DENMTx, 0, int64(uint32(id.OriginatingStationID)), int64(id.SequenceNumber))
	return id, nil
}

// TriggerCAM broadcasts a single CAM with the node's static position
// (the trigger_cam endpoint).
func (n *RealNode) TriggerCAM() error {
	ts := n.nowITS()
	cam := messages.NewCAM(n.stationID, units.DeltaTimeFromTimestamp(ts))
	cam.Basic = messages.BasicContainer{
		StationType: n.stationType,
		Position: messages.ReferencePosition{
			Latitude:      units.LatitudeFromDegrees(n.position.Lat),
			Longitude:     units.LongitudeFromDegrees(n.position.Lon),
			AltitudeValue: messages.AltitudeUnavailable,
		},
	}
	cam.HighFrequency = messages.BasicVehicleContainerHighFrequency{
		Heading:                units.HeadingUnavailable,
		HeadingConfidence:      127,
		Speed:                  units.SpeedStandstill,
		SpeedConfidence:        127,
		DriveDirection:         messages.DriveDirectionUnavailable,
		VehicleLength:          1023,
		VehicleWidth:           62,
		AccelerationConfidence: 102,
		Curvature:              units.CurvatureUnavailable,
		YawRate:                32767,
	}
	payload, err := cam.Encode()
	if err != nil {
		return fmt.Errorf("openc2x: encode CAM: %w", err)
	}
	pkt, err := btp.Encode(btp.Header{Type: btp.TypeB, DestinationPort: btp.PortCAM}, payload)
	if err != nil {
		return err
	}
	gn := &geonet.Packet{
		Version:           geonet.CurrentVersion,
		Lifetime:          geonet.Lifetime{Multiplier: 1, Base: 1},
		RemainingHopLimit: 1,
		Next:              geonet.NextBTPB,
		Type:              geonet.HeaderTypeTSB,
		Subtype:           geonet.SubtypeSHB,
		MaxHopLimit:       1,
		Source:            n.ego(),
		Payload:           pkt,
	}
	frame, err := gn.Marshal()
	if err != nil {
		return fmt.Errorf("openc2x: marshal GN: %w", err)
	}
	return n.link.SendBroadcast(frame)
}

// actionIDString formats an ActionID as "origin:seq".
func actionIDString(id messages.ActionID) string {
	return fmt.Sprintf("%d:%d", uint32(id.OriginatingStationID), id.SequenceNumber)
}

// deliver routes one decoded frame into the node: DENMs queue in the
// bounded mailbox, CAMs are counted. Own broadcasts echoed back are
// ignored. The MuxServer calls this with a frame decoded once for all
// hosted stations, and with its DENM's "origin:seq", formatted once
// for the spans of every receiving station.
func (n *RealNode) deliver(rx *stack.RxFrame, actionID string) {
	source := rx.Packet.Source.Address
	if source == geonet.NewAddress(n.stationType, n.stationID) {
		return // own broadcast echoed back
	}
	switch {
	case rx.DENM != nil:
		d := rx.DENM
		n.received.Add(1)
		n.denms.Add(1)
		id := d.Management.ActionID
		now := time.Since(n.start)
		n.p.Record(now, flight.DENMRx, flight.RxOK, int64(uint32(id.OriginatingStationID)), int64(id.SequenceNumber))
		root := n.p.Start("openc2x.rx_frame", "openc2x", now)
		root.SetAttr("action_id", actionID)
		msp := n.p.StartChild(root, "openc2x.mailbox", "openc2x", now)
		root.End(now)
		if n.logger.Enabled(context.Background(), slog.LevelDebug) {
			n.logger.Debug("denm received", "action_id", actionID, "source", source.String())
		}
		n.mu.Lock()
		old, evicted := n.push(mailboxEntry{rd: ReceivedDENM{DENM: d, ReceivedAt: now}, span: msp})
		if evicted {
			// Full: the oldest undelivered DENM made way (drop-oldest
			// keeps the freshest hazard information for a client that
			// finally polls); account the loss.
			oid := old.rd.DENM.Management.ActionID
			n.p.Record(now, flight.MailboxDrop, flight.DropOldest, int64(uint32(oid.OriginatingStationID)), int64(oid.SequenceNumber))
			n.dropped.Inc()
		}
		n.depthMax.SetMax(float64(n.count))
		n.mu.Unlock()
		if evicted {
			old.span.Drop(now, "mailbox_full")
			n.retire(old.span)
		}
	case rx.CAM != nil:
		c := rx.CAM
		n.received.Add(1)
		n.cams.Add(1)
		n.p.Record(time.Since(n.start), flight.CAMRx, flight.RxOK, int64(c.Header.StationID), 0)
	}
}

// push queues e behind the newest entry. At the cap it evicts the
// oldest entry by overwriting it, and returns it. Caller holds n.mu.
func (n *RealNode) push(e mailboxEntry) (old mailboxEntry, evicted bool) {
	if n.count == len(n.mailbox) {
		if n.mailboxCap > 0 && n.count > 0 {
			old = n.mailbox[n.head]
			n.mailbox[n.head] = e
			n.head = (n.head + 1) % n.count
			return old, true
		}
		size := n.mailboxCap
		if size < 0 {
			size = max(16, 2*n.count)
		}
		grown := make([]mailboxEntry, size)
		for i := range n.count {
			grown[i] = n.mailbox[(n.head+i)%len(n.mailbox)]
		}
		n.mailbox, n.head = grown, 0
	}
	n.mailbox[(n.head+n.count)%len(n.mailbox)] = e
	n.count++
	return old, false
}

// drain empties the mailbox, returning its DENMs and their open spans
// oldest first.
func (n *RealNode) drain() ([]ReceivedDENM, []*tracing.Span) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.count == 0 {
		return nil, nil
	}
	out := make([]ReceivedDENM, n.count)
	spans := make([]*tracing.Span, n.count)
	for i := range out {
		e := &n.mailbox[(n.head+i)%len(n.mailbox)]
		out[i], spans[i] = e.rd, e.span
		*e = mailboxEntry{}
	}
	n.head, n.count = 0, 0
	return out, spans
}

// RequestDENM drains the mailbox, oldest first (the request_denm
// endpoint). Each drained message's trace moves from the tracer into
// the /trace ring.
func (n *RealNode) RequestDENM() []ReceivedDENM {
	n.polls.Inc()
	out, spans := n.drain()
	now := time.Since(n.start)
	for _, sp := range spans {
		sp.End(now)
		n.retire(sp)
	}
	return out
}

// DrainMailbox discards any undelivered DENMs, ending their mailbox
// spans with a drop reason, and reports how many were pending. The
// daemons call it on graceful shutdown after the HTTP listener has
// stopped accepting polls.
func (n *RealNode) DrainMailbox(reason string) int {
	_, spans := n.drain()
	dropped := len(spans)
	now := time.Since(n.start)
	if dropped > 0 {
		n.p.Record(now, flight.MailboxDrop, flight.DropShutdown, int64(dropped), 0)
	}
	for _, sp := range spans {
		sp.Drop(now, reason)
		n.retire(sp)
	}
	return dropped
}

// retire moves the finished trace of sp out of the node's tracer into
// the /trace ring.
func (n *RealNode) retire(sp *tracing.Span) {
	n.ring.Retire(n.p.Sink().Tracer, sp)
}

// TraceHandler serves the ring of recent DENM traces as JSON (the
// daemons' /trace endpoint).
func (n *RealNode) TraceHandler() http.Handler { return n.ring.Handler() }

// UDPLink broadcasts GN frames between lab machines over UDP,
// standing in for the 802.11p air interface of the daemons.
type UDPLink struct {
	conn  *net.UDPConn
	peers []*net.UDPAddr
	srv   *MuxServer
	done  chan struct{}
	wg    sync.WaitGroup
}

// NewUDPLink binds listenAddr and targets the given peer addresses.
func NewUDPLink(listenAddr string, peerAddrs []string) (*UDPLink, error) {
	laddr, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("openc2x: resolve %q: %w", listenAddr, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("openc2x: listen %q: %w", listenAddr, err)
	}
	l := &UDPLink{conn: conn, done: make(chan struct{})}
	for _, a := range peerAddrs {
		pa, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("openc2x: resolve peer %q: %w", a, err)
		}
		l.peers = append(l.peers, pa)
	}
	return l, nil
}

// LocalAddr returns the bound address (useful with port 0 in tests).
func (l *UDPLink) LocalAddr() string { return l.conn.LocalAddr().String() }

// AddPeer adds a peer address after construction.
func (l *UDPLink) AddPeer(addr string) error {
	pa, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("openc2x: resolve peer %q: %w", addr, err)
	}
	l.peers = append(l.peers, pa)
	return nil
}

// SendBroadcast sends the frame to every peer.
func (l *UDPLink) SendBroadcast(frame []byte) error {
	var firstErr error
	for _, p := range l.peers {
		if _, err := l.conn.WriteToUDP(frame, p); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Start begins the read loop, handing every datagram to srv.
func (l *UDPLink) Start(srv *MuxServer) {
	l.srv = srv
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		buf := make([]byte, 2048)
		for {
			select {
			case <-l.done:
				return
			default:
			}
			l.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			n, _, err := l.conn.ReadFromUDP(buf)
			if err != nil {
				continue
			}
			frame := make([]byte, n)
			copy(frame, buf[:n])
			l.srv.OnFrame(frame)
		}
	}()
}

// Close stops the read loop and closes the socket.
func (l *UDPLink) Close() error {
	close(l.done)
	err := l.conn.Close()
	l.wg.Wait()
	return err
}
