package radio

import (
	"fmt"
	"math/rand"
	"time"

	"itsbed/internal/flight"
	"itsbed/internal/metrics"
	"itsbed/internal/sim"
	"itsbed/internal/trace"
)

// CellularProfile describes the one-way latency of a cellular (Uu)
// link between two stations via base station and core/edge network, as
// used by the paper's planned 5G comparison. Latency is sampled per
// message as base + exponential jitter, plus a loss probability.
type CellularProfile struct {
	Name string
	// BaseLatency is the minimum one-way latency (scheduling grant +
	// radio + transport to the edge).
	BaseLatency time.Duration
	// JitterMean is the mean of the additional exponential jitter.
	JitterMean time.Duration
	// LossProbability of a message (HARQ failures surviving RLC).
	LossProbability float64
}

// Profile5GURLLC approximates a 5G NR link with edge breakout and
// URLLC-grade configuration.
func Profile5GURLLC() CellularProfile {
	return CellularProfile{
		Name:        "5G-URLLC-edge",
		BaseLatency: 4 * time.Millisecond,
		JitterMean:  2 * time.Millisecond,
	}
}

// Profile5GEMBB approximates a public 5G eMBB network with regional
// core.
func Profile5GEMBB() CellularProfile {
	return CellularProfile{
		Name:            "5G-eMBB-public",
		BaseLatency:     12 * time.Millisecond,
		JitterMean:      8 * time.Millisecond,
		LossProbability: 0.001,
	}
}

// ProfileLTE approximates a public LTE network.
func ProfileLTE() CellularProfile {
	return CellularProfile{
		Name:            "LTE-public",
		BaseLatency:     25 * time.Millisecond,
		JitterMean:      15 * time.Millisecond,
		LossProbability: 0.005,
	}
}

// CellularLink is the infrastructure (Uu) path of a cellular network:
// stations attach as UuEndpoints, and every broadcast rides an uplink
// to the base station/core and per-receiver downlinks, with the
// profile's latency and loss law.
type CellularLink struct {
	kernel  *sim.Kernel
	profile CellularProfile
	rng     *rand.Rand

	// Faults, when non-nil, screens Uu deliveries: blackout windows
	// wipe uplinks at the base station, per-link drops hit individual
	// downlinks. Set before the first AttachUu.
	Faults FaultModel
	// Sink receives the same radio_* frame counters the other
	// backends report, and per-endpoint tx/rx/drop flight events on
	// the Uu path. Set before the first AttachUu.
	Sink trace.Sink

	endpoints []*UuEndpoint

	// uplinks holds the messages on their uplink leg, in send order.
	// Each send schedules arriveFn, bound once, which hands the
	// earliest-arriving message to the base station; so an uplink costs
	// no closure of its own.
	uplinks  []uplink
	arriveFn func()

	// MessagesSent counts messages entering the link.
	MessagesSent uint64
	// MessagesLost counts messages dropped by the loss model; always
	// at most MessagesSent, since loss is decided once per message.
	MessagesLost uint64
	// FramesDelivered counts per-receiver Uu deliveries.
	FramesDelivered uint64
	// FramesLost counts per-receiver Uu losses (blackout, faults,
	// uplink decode failures).
	FramesLost uint64

	mSent, mDelivered           *metrics.Counter
	mLostDecode                 *metrics.Counter
	mLostBlackout, mLostUuFault *metrics.Counter
}

// NewCellularLink creates a cellular link on the kernel.
func NewCellularLink(kernel *sim.Kernel, profile CellularProfile) *CellularLink {
	l := &CellularLink{
		kernel:  kernel,
		profile: profile,
		rng:     kernel.Rand("radio.cellular." + profile.Name),
	}
	l.arriveFn = l.arrive
	return l
}

// uplink is one message on its uplink leg: its sender, the frame every
// downlink will deliver, and when it reaches the base station.
type uplink struct {
	src *UuEndpoint
	rx  *Frame
	at  time.Duration
}

// UuEndpoint is one named station on the Uu (infrastructure) path: a
// Link whose broadcasts ride an uplink leg to the base station/core
// and fan out on per-receiver downlink legs, each leg carrying half
// the profile's latency law so the end-to-end mean stays
// BaseLatency + JitterMean. Endpoints are screened by the link's
// fault injector and recorded in its flight recorder.
type UuEndpoint struct {
	link    *CellularLink
	name    string
	receive func(*Frame)
	fl      flight.Hook

	// FramesSent counts frames this endpoint put on the uplink.
	FramesSent uint64
	// FramesReceived counts frames decoded at this endpoint.
	FramesReceived uint64
}

// AttachUu adds a named endpoint to the link's infrastructure path.
// Set Faults and Sink before the first attach; the radio_*
// counters register on first use so fault-free snapshots match the
// other backends.
func (l *CellularLink) AttachUu(name string) (*UuEndpoint, error) {
	if name == "" {
		return nil, fmt.Errorf("radio: uu attach: empty station name")
	}
	if l.mSent == nil {
		r := l.Sink.Metrics
		l.mSent = r.Counter("radio_frames_sent_total")
		l.mDelivered = r.Counter("radio_frames_delivered_total")
		l.mLostDecode = r.Counter("radio_frames_lost_total", metrics.L("reason", "decode"))
		if l.Faults != nil {
			l.mLostBlackout = r.Counter("radio_frames_lost_total", metrics.L("reason", "blackout"))
			l.mLostUuFault = r.Counter("radio_frames_lost_total", metrics.L("reason", "fault"))
		}
	}
	ep := &UuEndpoint{link: l, name: name, fl: l.Sink.Flight.Hook(name)}
	l.endpoints = append(l.endpoints, ep)
	return ep, nil
}

// AttachStation implements Backend with a Uu endpoint; the base
// station reaches every endpoint, so pos is unused.
func (l *CellularLink) AttachStation(name string, _ PositionFunc) (Link, error) {
	return asLink(l.AttachUu(name))
}

// SetReceiver installs the frame-delivery callback, satisfying Link.
// Every downlink of one uplinked message delivers the same read-only
// *Frame (see Frame).
func (e *UuEndpoint) SetReceiver(fn func(*Frame)) { e.receive = fn }

// legDelay samples one leg (uplink or downlink) of the Uu path: half
// the base latency plus exponential jitter at half the mean, so the
// two-leg end-to-end delay keeps the profile's BaseLatency+JitterMean
// mean.
func (l *CellularLink) legDelay() time.Duration {
	delay := l.profile.BaseLatency / 2
	if l.profile.JitterMean > 0 {
		delay += time.Duration(l.rng.ExpFloat64() * float64(l.profile.JitterMean) / 2)
	}
	return delay
}

// SendBroadcast routes the frame through the base-station hop to every
// other endpoint, satisfying geonet.LinkLayer / Link. Uplink
// loss is decided once per message (the PR 7 law: a lost message
// reaches no receiver); per-receiver fault drops are screened on the
// downlink legs.
func (e *UuEndpoint) SendBroadcast(frame []byte) error {
	l := e.link
	now := l.kernel.Now()
	l.MessagesSent++
	e.FramesSent++
	l.mSent.Inc()
	e.fl.Record(now, flight.RadioTx, 0, int64(len(frame)), 0)
	if len(l.endpoints) < 2 {
		return nil
	}
	if f := l.Faults; f != nil && f.BlackoutAt(now) {
		// The radio leg to the base station is inside the blackout:
		// the whole message is lost before the core ever sees it.
		l.MessagesLost++
		for _, dst := range l.endpoints {
			if dst == e {
				continue
			}
			l.FramesLost++
			l.mLostBlackout.Inc()
			dst.fl.RecordFrom(now, flight.RadioDrop, flight.DropBlackout, e.fl, 0, 0)
		}
		return nil
	}
	if l.profile.LossProbability > 0 && l.rng.Float64() < l.profile.LossProbability {
		l.MessagesLost++
		for _, dst := range l.endpoints {
			if dst == e {
				continue
			}
			l.FramesLost++
			l.mLostDecode.Inc()
			dst.fl.RecordFrom(now, flight.RadioDrop, flight.DropSINR, e.fl, 0, 0)
		}
		return nil
	}
	rx := &Frame{Bytes: make([]byte, len(frame))}
	copy(rx.Bytes, frame)
	delay := l.legDelay()
	l.uplinks = append(l.uplinks, uplink{src: e, rx: rx, at: now + delay})
	l.kernel.ScheduleFn(delay, l.arriveFn)
	return nil
}

// arrive runs at the end of an uplink leg. The kernel fires uplink
// events in (arrival time, send order), so the message whose leg ends
// now is the first one in send order with the earliest arrival time.
func (l *CellularLink) arrive() {
	first := 0
	for i, u := range l.uplinks {
		if u.at < l.uplinks[first].at {
			first = i
		}
	}
	u := l.uplinks[first]
	last := len(l.uplinks) - 1
	copy(l.uplinks[first:], l.uplinks[first+1:])
	l.uplinks[last] = uplink{} // release the frame
	l.uplinks = l.uplinks[:last]
	l.atBaseStation(u.src, u.rx)
}

// atBaseStation fans the uplinked frame out on per-receiver downlink
// legs, screening each against the fault injector.
func (l *CellularLink) atBaseStation(src *UuEndpoint, rx *Frame) {
	now := l.kernel.Now()
	for _, dst := range l.endpoints {
		if dst == src {
			continue
		}
		if f := l.Faults; f != nil {
			if reason, drop := f.LinkDrop(now, src.name, dst.name); drop {
				l.FramesLost++
				l.mLostUuFault.Inc()
				code := flight.DropBurstLoss
				if reason == "fault_corruption" {
					code = flight.DropCorruption
				}
				dst.fl.RecordFrom(now, flight.RadioDrop, code, src.fl, 0, 0)
				continue
			}
		}
		dst := dst
		l.kernel.ScheduleFn(l.legDelay(), func() {
			l.FramesDelivered++
			l.mDelivered.Inc()
			dst.FramesReceived++
			dst.fl.RecordFrom(l.kernel.Now(), flight.RadioRx, flight.RxOK, src.fl, int64(len(rx.Bytes)), 0)
			if dst.receive != nil {
				dst.receive(rx)
			}
		})
	}
}

// String implements fmt.Stringer.
func (l *CellularLink) String() string {
	return fmt.Sprintf("cellular(%s)", l.profile.Name)
}
