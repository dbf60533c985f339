// C-V2X mode-4 sidelink (PC5): a second first-class radio backend next
// to the 802.11p Medium, per the KTH small-scale C-V2X testbed paper.
// Stations attach to a shared PC5Medium and transmit on semi-persistent
// scheduling (SPS) grants: each station autonomously selects a
// (slot, subchannel) resource inside a selection window, keeps it for a
// randomly drawn number of transmissions (the reselection counter), and
// then reselects. Two stations on the same resource collide and lose
// both frames; a station cannot decode while its own grant is on the
// air (half-duplex). Every random draw comes from dedicated
// "radio.cv2x.*" kernel streams, so runs that never construct a
// PC5Medium — every ITS-G5 campaign — replay bit-identically.
package radio

import (
	"fmt"
	"math/rand"
	"time"

	"itsbed/internal/flight"
	"itsbed/internal/geo"
	"itsbed/internal/metrics"
	"itsbed/internal/sim"
	"itsbed/internal/trace"
)

// SPSConfig parameterises the mode-4 semi-persistent scheduler (the
// shape of 3GPP TS 36.213 §14, reduced to the quantities the testbed
// evaluates).
type SPSConfig struct {
	// SlotDuration is one sidelink subframe; zero selects 1 ms.
	SlotDuration time.Duration
	// RRI is the resource reservation interval between grant
	// occurrences; zero selects 100 ms.
	RRI time.Duration
	// Subchannels in the resource pool; zero selects 4.
	Subchannels int
	// T1, T2 bound the selection window in slots: a reselection at slot
	// s grants a first occurrence in [s+T1, s+T2]. Zero selects 4 and
	// 100.
	T1, T2 int
	// C1, C2 bound the reselection counter: after a reselection the
	// grant is kept for a uniform draw in [C1, C2] transmissions. Zero
	// selects 5 and 15.
	C1, C2 int
	// ProbKeep is the standard's probability of keeping the current
	// resource when the counter expires (0..0.8); default 0.
	ProbKeep float64
}

func (c SPSConfig) withDefaults() SPSConfig {
	if c.SlotDuration <= 0 {
		c.SlotDuration = time.Millisecond
	}
	if c.RRI < c.SlotDuration {
		c.RRI = 100 * time.Millisecond
	}
	if c.Subchannels <= 0 {
		c.Subchannels = 4
	}
	if c.T1 <= 0 {
		c.T1 = 4
	}
	if c.T2 < c.T1 {
		c.T2 = c.T1 + 96
	}
	if c.C1 <= 0 {
		c.C1 = 5
	}
	if c.C2 < c.C1 {
		c.C2 = c.C1 + 10
	}
	if c.ProbKeep < 0 {
		c.ProbKeep = 0
	}
	if c.ProbKeep > 0.8 {
		c.ProbKeep = 0.8
	}
	return c
}

// SlotsPerRRI is the resource-pool period in slots.
func (c SPSConfig) SlotsPerRRI() int64 {
	n := int64(c.RRI / c.SlotDuration)
	if n < 1 {
		n = 1
	}
	return n
}

// SPSScheduler is one station's mode-4 grant state: the absolute slot
// of the next transmission opportunity, the granted subchannel, and
// the reselection counter. All randomness comes from the rng handed to
// the constructor, so the scheduler is a pure function of its draws.
type SPSScheduler struct {
	cfg     SPSConfig
	rng     *rand.Rand
	next    int64 // absolute slot of the next grant occurrence
	sub     int   // granted subchannel
	counter int   // transmissions left before the reselection check

	// Reselections counts grant reselections (the initial selection
	// excluded).
	Reselections uint64
}

// NewSPSScheduler draws an initial grant with the selection window
// anchored at slot 0.
func NewSPSScheduler(cfg SPSConfig, rng *rand.Rand) *SPSScheduler {
	s := &SPSScheduler{cfg: cfg.withDefaults(), rng: rng}
	s.Reselect(0)
	s.Reselections = 0
	return s
}

// Subchannel returns the granted subchannel.
func (s *SPSScheduler) Subchannel() int { return s.sub }

// Reselect draws a fresh grant: first occurrence uniform in
// [nowSlot+T1, nowSlot+T2], subchannel uniform over the pool, counter
// uniform in [C1, C2].
func (s *SPSScheduler) Reselect(nowSlot int64) {
	s.next = nowSlot + int64(s.cfg.T1) + int64(s.rng.Intn(s.cfg.T2-s.cfg.T1+1))
	s.sub = s.rng.Intn(s.cfg.Subchannels)
	s.counter = s.drawCounter()
	s.Reselections++
}

func (s *SPSScheduler) drawCounter() int {
	return s.cfg.C1 + s.rng.Intn(s.cfg.C2-s.cfg.C1+1)
}

// NextTxSlot returns the first grant occurrence at or after notBefore,
// fast-forwarding the grant's phase in whole RRI periods.
func (s *SPSScheduler) NextTxSlot(notBefore int64) int64 {
	if s.next < notBefore {
		period := s.cfg.SlotsPerRRI()
		k := (notBefore - s.next + period - 1) / period
		s.next += k * period
	}
	return s.next
}

// OnTransmit consumes one grant occurrence: the next opportunity moves
// one RRI ahead and the reselection counter decrements; at zero the
// station keeps its resource with ProbKeep (redrawing only the
// counter) or reselects inside a fresh selection window.
func (s *SPSScheduler) OnTransmit() (reselected bool) {
	used := s.next
	s.next += s.cfg.SlotsPerRRI()
	s.counter--
	if s.counter > 0 {
		return false
	}
	if s.cfg.ProbKeep > 0 && s.rng.Float64() < s.cfg.ProbKeep {
		s.counter = s.drawCounter()
		return false
	}
	s.Reselect(used)
	return true
}

// PC5Config parameterises the sidelink medium.
type PC5Config struct {
	// SPS is the resource-pool/scheduler configuration shared by every
	// attached station (zero values select the defaults).
	SPS SPSConfig
	// RangeM is the hard communication range; receivers farther away
	// never decode. Zero selects 320 m (the paper-scale lab is always
	// in range).
	RangeM float64
	// LossProbability is the residual per-receiver decode failure for
	// in-range, collision-free receptions (HARQ failures surviving
	// retransmission). Default 0.
	LossProbability float64
	// Faults, when non-nil, screens receptions for injected channel
	// faults: blackout windows wipe the slot, per-link Gilbert–Elliott
	// drops hit individual receivers.
	Faults FaultModel
	// Sink receives the radio_* frame counters (the same family the
	// 802.11p medium reports, so campaign PDR extraction is
	// backend-agnostic) plus cv2x_sps_reselections_total, and
	// per-station tx/rx/drop flight events. Out-of-range drops are,
	// like the medium's sensitivity drops, deliberately not recorded.
	Sink trace.Sink
}

func (c *PC5Config) applyDefaults() {
	c.SPS = c.SPS.withDefaults()
	if c.RangeM == 0 {
		c.RangeM = 320
	}
}

// pc5Tx is one frame on a sidelink grant.
type pc5Tx struct {
	src *PC5Interface
	// rx is what every receiver of the frame gets (see Frame).
	rx   Frame
	slot int64
	sub  int
}

// pc5Slot tracks the occupancy of one absolute slot while its
// transmissions are in flight: the per-subchannel transmitter count
// decides collisions, remaining counts pending completions so the
// entry can be retired.
type pc5Slot struct {
	subCount  []uint16
	remaining int
}

// PC5Medium is the shared C-V2X mode-4 sidelink channel. Interfaces
// attach with a position and transmit on their SPS grants; reception
// is evaluated once per slot against every other attached interface.
type PC5Medium struct {
	kernel *sim.Kernel
	cfg    PC5Config
	rng    *rand.Rand // residual-loss stream "radio.cv2x.pc5"
	ifaces []*PC5Interface
	slots  map[int64]*pc5Slot

	// FramesSent counts transmissions entering the air.
	FramesSent uint64
	// FramesDelivered counts per-receiver successful decodes.
	FramesDelivered uint64
	// FramesLost counts per-receiver losses (collision, half-duplex,
	// range, faults, residual decode failures).
	FramesLost uint64
	// Collisions counts frames wiped by a same-resource collision.
	Collisions uint64
	// MessagesSent counts frames entering the air (one message per
	// frame); MessagesLost counts frames that reached no receiver while
	// at least one other station was attached — the PR 7 loss law
	// MessagesLost <= MessagesSent holds by construction.
	MessagesSent, MessagesLost uint64

	mSent, mDelivered                       *metrics.Counter
	mLostCollision, mLostHalfDuplex         *metrics.Counter
	mLostRange, mLostDecode                 *metrics.Counter
	mLostBlackout, mLostFault, mReselection *metrics.Counter
}

// NewPC5Medium creates a sidelink medium on the kernel. Its RNG
// streams ("radio.cv2x.pc5" here, "radio.cv2x.sps.<name>" per
// attached station) are created only by this constructor, so ITS-G5
// runs never touch them.
func NewPC5Medium(kernel *sim.Kernel, cfg PC5Config) *PC5Medium {
	cfg.applyDefaults()
	m := &PC5Medium{
		kernel: kernel,
		cfg:    cfg,
		rng:    kernel.Rand("radio.cv2x.pc5"),
		slots:  make(map[int64]*pc5Slot),
	}
	r := cfg.Sink.Metrics
	m.mSent = r.Counter("radio_frames_sent_total")
	m.mDelivered = r.Counter("radio_frames_delivered_total")
	m.mLostCollision = r.Counter("radio_frames_lost_total", metrics.L("reason", "collision"))
	m.mLostHalfDuplex = r.Counter("radio_frames_lost_total", metrics.L("reason", "half_duplex"))
	m.mLostRange = r.Counter("radio_frames_lost_total", metrics.L("reason", "range"))
	m.mLostDecode = r.Counter("radio_frames_lost_total", metrics.L("reason", "decode"))
	m.mReselection = r.Counter("cv2x_sps_reselections_total")
	if cfg.Faults != nil {
		// Registered only under fault injection so fault-free
		// snapshots stay unchanged (same policy as the medium).
		m.mLostBlackout = r.Counter("radio_frames_lost_total", metrics.L("reason", "blackout"))
		m.mLostFault = r.Counter("radio_frames_lost_total", metrics.L("reason", "fault"))
	}
	return m
}

// slotIndex is the absolute slot containing t.
func (m *PC5Medium) slotIndex(t time.Duration) int64 {
	return int64(t / m.cfg.SPS.SlotDuration)
}

// slotTime is the start of slot s.
func (m *PC5Medium) slotTime(s int64) time.Duration {
	return time.Duration(s) * m.cfg.SPS.SlotDuration
}

// PC5Interface is one station on the sidelink. It implements Link:
// SendBroadcast queues the frame for the station's next SPS grant
// occurrence.
type PC5Interface struct {
	id      int
	name    string
	medium  *PC5Medium
	kernel  *sim.Kernel
	pos     PositionFunc
	sps     *SPSScheduler
	receive func(*Frame)
	fl      flight.Hook

	// queue[head:] holds frames awaiting a grant occurrence; the
	// backing array is reused like the 802.11p interface's queue.
	queue    [][]byte
	head     int
	queueCap int
	// armed marks a scheduled grant-occurrence callback.
	armed bool
	// lastTxSlot is the most recent slot this station transmitted in
	// (the half-duplex screen); -1 before the first transmission.
	lastTxSlot int64

	// FramesQueued counts frames accepted into the transmit queue.
	FramesQueued uint64
	// FramesDroppedQueueFull counts tail drops.
	FramesDroppedQueueFull uint64
	// FramesTransmitted counts frames put on a grant.
	FramesTransmitted uint64
	// FramesReceived counts frames decoded at this station.
	FramesReceived uint64
}

// Attach adds a station to the sidelink. pos may be nil for
// co-located test stations (every receiver in range).
func (m *PC5Medium) Attach(name string, pos PositionFunc) (*PC5Interface, error) {
	if name == "" {
		return nil, fmt.Errorf("radio: pc5 attach: empty station name")
	}
	iface := &PC5Interface{
		id:         len(m.ifaces),
		name:       name,
		medium:     m,
		kernel:     m.kernel,
		pos:        pos,
		sps:        NewSPSScheduler(m.cfg.SPS, m.kernel.Rand("radio.cv2x.sps."+name)),
		fl:         m.cfg.Sink.Flight.Hook(name),
		queueCap:   64,
		lastTxSlot: -1,
	}
	m.ifaces = append(m.ifaces, iface)
	return iface, nil
}

// AttachStation implements Backend.
func (m *PC5Medium) AttachStation(name string, pos PositionFunc) (Link, error) {
	return asLink(m.Attach(name, pos))
}

// SetReceiver installs the frame-delivery callback. As on the 802.11p
// medium, every receiver of one sidelink transmission gets the same
// read-only *Frame (see Frame).
func (i *PC5Interface) SetReceiver(fn func(*Frame)) { i.receive = fn }

func (i *PC5Interface) queueLen() int { return len(i.queue) - i.head }

// SendBroadcast queues a frame for the station's next grant
// occurrence, satisfying geonet.LinkLayer / Link.
func (i *PC5Interface) SendBroadcast(frame []byte) error {
	now := i.kernel.Now()
	if i.queueLen() >= i.queueCap {
		i.FramesDroppedQueueFull++
		i.fl.Record(now, flight.RadioDrop, flight.DropQueueFull, 0, 0)
		return fmt.Errorf("radio: %s sidelink queue full (%d frames)", i.name, i.queueCap)
	}
	f := make([]byte, len(frame))
	copy(f, frame)
	if i.head == len(i.queue) && i.head > 0 {
		i.queue = i.queue[:0]
		i.head = 0
	}
	i.queue = append(i.queue, f)
	i.FramesQueued++
	i.armGrant()
	return nil
}

// armGrant schedules the head-of-line frame onto the next grant
// occurrence strictly after the current slot.
func (i *PC5Interface) armGrant() {
	if i.armed || i.queueLen() == 0 {
		return
	}
	i.armed = true
	txSlot := i.sps.NextTxSlot(i.medium.slotIndex(i.kernel.Now()) + 1)
	i.kernel.At(i.medium.slotTime(txSlot), func() { i.fireGrant(txSlot) })
}

// fireGrant transmits the head-of-line frame on the grant occurrence.
func (i *PC5Interface) fireGrant(slot int64) {
	i.armed = false
	if i.queueLen() == 0 {
		return
	}
	frame := i.queue[i.head]
	i.queue[i.head] = nil
	i.head++
	if i.head == len(i.queue) {
		i.queue = i.queue[:0]
		i.head = 0
	}
	sub := i.sps.Subchannel()
	if i.sps.OnTransmit() {
		i.medium.mReselection.Inc()
	}
	i.FramesTransmitted++
	i.medium.transmit(i, frame, slot, sub)
	i.armGrant()
}

// transmit registers the frame in its slot and schedules the
// slot-end reception evaluation.
func (m *PC5Medium) transmit(src *PC5Interface, frame []byte, slot int64, sub int) {
	now := m.kernel.Now()
	m.FramesSent++
	m.MessagesSent++
	m.mSent.Inc()
	src.fl.Record(now, flight.RadioTx, 0, int64(len(frame)), 0)
	src.lastTxSlot = slot
	s := m.slots[slot]
	if s == nil {
		s = &pc5Slot{subCount: make([]uint16, m.cfg.SPS.Subchannels)}
		m.slots[slot] = s
	}
	s.subCount[sub]++
	s.remaining++
	t := &pc5Tx{src: src, rx: Frame{Bytes: frame}, slot: slot, sub: sub}
	m.kernel.ScheduleFn(m.cfg.SPS.SlotDuration, func() { m.complete(t) })
}

// complete evaluates one frame's reception at the end of its slot.
// Every transmission of the slot registered before any completion runs
// (completions are scheduled one full slot later), so the
// per-subchannel occupancy counts are final here.
func (m *PC5Medium) complete(t *pc5Tx) {
	now := m.kernel.Now()
	s := m.slots[t.slot]
	collided := s.subCount[t.sub] > 1
	if collided {
		m.Collisions++
	}
	var blackout bool
	if f := m.cfg.Faults; f != nil {
		blackout = f.BlackoutAt(now)
	}
	var srcPos geo.Point
	if t.src.pos != nil {
		srcPos = t.src.pos()
	}
	deliveries := 0
	for _, dst := range m.ifaces {
		if dst == t.src {
			continue
		}
		switch {
		case blackout:
			m.FramesLost++
			m.mLostBlackout.Inc()
			dst.fl.RecordFrom(now, flight.RadioDrop, flight.DropBlackout, t.src.fl, 0, 0)
			continue
		case collided:
			m.FramesLost++
			m.mLostCollision.Inc()
			dst.fl.RecordFrom(now, flight.RadioDrop, flight.DropCollision, t.src.fl, 0, 0)
			continue
		case dst.lastTxSlot == t.slot:
			// The receiver spent this slot transmitting (half-duplex).
			m.FramesLost++
			m.mLostHalfDuplex.Inc()
			dst.fl.RecordFrom(now, flight.RadioDrop, flight.DropHalfDuplex, t.src.fl, 0, 0)
			continue
		}
		if t.src.pos != nil && dst.pos != nil {
			if d := srcPos.DistanceTo(dst.pos()); d > m.cfg.RangeM {
				// Like the medium's sensitivity drops, out-of-range
				// losses are counted but not flight-recorded.
				m.FramesLost++
				m.mLostRange.Inc()
				continue
			}
		}
		if f := m.cfg.Faults; f != nil {
			if reason, drop := f.LinkDrop(now, t.src.name, dst.name); drop {
				m.FramesLost++
				m.mLostFault.Inc()
				code := flight.DropBurstLoss
				if reason == "fault_corruption" {
					code = flight.DropCorruption
				}
				dst.fl.RecordFrom(now, flight.RadioDrop, code, t.src.fl, 0, 0)
				continue
			}
		}
		if m.cfg.LossProbability > 0 && m.rng.Float64() < m.cfg.LossProbability {
			m.FramesLost++
			m.mLostDecode.Inc()
			dst.fl.RecordFrom(now, flight.RadioDrop, flight.DropSINR, t.src.fl, 0, 0)
			continue
		}
		deliveries++
		m.FramesDelivered++
		m.mDelivered.Inc()
		dst.FramesReceived++
		dst.fl.RecordFrom(now, flight.RadioRx, flight.RxOK, t.src.fl, int64(len(t.rx.Bytes)), 0)
		if dst.receive != nil {
			dst.receive(&t.rx)
		}
	}
	if deliveries == 0 && len(m.ifaces) > 1 {
		m.MessagesLost++
	}
	s.remaining--
	if s.remaining == 0 {
		delete(m.slots, t.slot)
	}
}
