package openc2x

import (
	"fmt"
	"math/rand"
	"time"

	"itsbed/internal/its/facilities/den"
	"itsbed/internal/its/messages"
	"itsbed/internal/metrics"
	"itsbed/internal/sim"
	"itsbed/internal/stack"
	"itsbed/internal/trace"
	"itsbed/internal/tracing"
)

// HTTPLatency models one direction of an HTTP request on the wired
// laboratory network (TCP handshake amortised by keep-alive; request
// serialisation; kernel and web-framework overhead on the APU2).
type HTTPLatency struct {
	Mean   time.Duration
	Jitter time.Duration // uniform ± jitter
}

// DefaultHTTPLatency matches a switched-Ethernet lab LAN with the
// OpenC2X web application as server (light request_denm path).
func DefaultHTTPLatency() HTTPLatency {
	return HTTPLatency{Mean: 1200 * time.Microsecond, Jitter: 700 * time.Microsecond}
}

// DefaultTriggerLatency models the heavier trigger_denm path: the
// OpenC2X web application relays the request through its ZeroMQ
// service chain and the DEN service assembles the ASN.1 message
// before the call returns, which the paper's measurements show costs
// roughly an order of magnitude more than a plain poll on the APU2.
func DefaultTriggerLatency() HTTPLatency {
	return HTTPLatency{Mean: 21 * time.Millisecond, Jitter: 6 * time.Millisecond}
}

// Latencies bundles the HTTP API latency models of a SimNode.
type Latencies struct {
	// Poll is the one-way latency of the request_denm path.
	Poll HTTPLatency
	// Trigger is the one-way latency of the trigger_denm path.
	Trigger HTTPLatency
}

func (l HTTPLatency) sample(rng *rand.Rand) time.Duration {
	d := l.Mean
	if l.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(2*l.Jitter))) - l.Jitter
	}
	if d < 0 {
		d = 0
	}
	return d
}

// SimNode is the in-simulation OpenC2X deployment: it owns a
// stack.Station and reproduces the HTTP API semantics, including the
// request latency an application experiences.
type SimNode struct {
	kernel  *sim.Kernel
	station *stack.Station
	lat     Latencies
	rng     *rand.Rand
	mailbox []ReceivedDENM
	// mailboxAt records the kernel time each mailbox entry arrived, for
	// the residency histogram.
	mailboxAt []time.Duration
	// mailboxSpans holds one open openc2x.mailbox span per mailbox
	// entry (nil entries when tracing is off), ended at poll pickup.
	mailboxSpans []*tracing.Span
	p            trace.Probe

	// Faults, when non-nil, screens every API request for injected
	// timeouts and error responses. Assign a concrete value only —
	// never a typed-nil interface.
	Faults HTTPFaultModel

	// MailboxCap, when positive, bounds the mailbox: a DENM arriving
	// with the box full evicts the oldest entry (drop-oldest — the
	// newest warning is the one worth keeping). Zero keeps the mailbox
	// unbounded, the historical behaviour deterministic campaigns
	// depend on. Set before traffic flows.
	MailboxCap int
	// MailboxDropped counts DENMs evicted by the cap.
	MailboxDropped uint64

	// TriggerCount counts accepted trigger_denm requests.
	TriggerCount uint64
	// PollCount counts request_denm polls served.
	PollCount uint64

	mTrigUp, mTrigDown, mPollUp, mPollDown, mResidency *metrics.Histogram
	mTriggers, mPolls, mDropped                        *metrics.Counter
	mDepthMax                                          *metrics.Gauge
}

// NewSimNode wraps a station and gives it an LDM (stack.AttachLDM), as
// every OpenC2X deployment keeps one. The station's OnDENM hook is
// taken over to fill the node's mailbox; install application hooks via
// the node, not the station, after this call.
func NewSimNode(kernel *sim.Kernel, station *stack.Station, lat Latencies) *SimNode {
	station.AttachLDM()
	if lat.Poll == (HTTPLatency{}) {
		lat.Poll = DefaultHTTPLatency()
	}
	if lat.Trigger == (HTTPLatency{}) {
		lat.Trigger = DefaultTriggerLatency()
	}
	n := &SimNode{
		kernel:  kernel,
		station: station,
		lat:     lat,
		rng:     kernel.Rand("openc2x." + station.Name()),
		p:       station.Probe(),
	}
	p := n.p
	n.mTrigUp = p.Histogram("openc2x_trigger_latency_seconds", metrics.L("dir", "up"))
	n.mTrigDown = p.Histogram("openc2x_trigger_latency_seconds", metrics.L("dir", "down"))
	n.mPollUp = p.Histogram("openc2x_poll_latency_seconds", metrics.L("dir", "up"))
	n.mPollDown = p.Histogram("openc2x_poll_latency_seconds", metrics.L("dir", "down"))
	n.mResidency = p.Histogram("openc2x_mailbox_residency_seconds")
	n.mTriggers = p.Counter("openc2x_triggers_total")
	n.mPolls = p.Counter("openc2x_polls_total")
	n.mDepthMax = p.Gauge("openc2x_mailbox_depth_max")
	n.mDropped = p.Counter("openc2x_mailbox_dropped_total")
	prev := station.OnDENM
	station.OnDENM = func(d *messages.DENM) {
		// The hook runs inside the den.receive scope, so Start attaches
		// the mailbox span to the delivery chain; it stays open until a
		// request_denm poll drains the entry.
		sp := n.p.Start("openc2x.mailbox", "openc2x", kernel.Now())
		if n.MailboxCap > 0 && len(n.mailbox) >= n.MailboxCap {
			// Drop-oldest: the stalest warning makes room for the
			// freshest one.
			n.mailboxSpans[0].Drop(kernel.Now(), "mailbox_full")
			copy(n.mailbox, n.mailbox[1:])
			n.mailbox = n.mailbox[:len(n.mailbox)-1]
			copy(n.mailboxAt, n.mailboxAt[1:])
			n.mailboxAt = n.mailboxAt[:len(n.mailboxAt)-1]
			copy(n.mailboxSpans, n.mailboxSpans[1:])
			n.mailboxSpans = n.mailboxSpans[:len(n.mailboxSpans)-1]
			n.MailboxDropped++
			n.mDropped.Inc()
		}
		n.mailbox = append(n.mailbox, ReceivedDENM{DENM: d, ReceivedAt: station.Clock.Now()})
		n.mailboxAt = append(n.mailboxAt, kernel.Now())
		n.mailboxSpans = append(n.mailboxSpans, sp)
		n.mDepthMax.SetMax(float64(len(n.mailbox)))
		if prev != nil {
			prev(d)
		}
	}
	return n
}

// Station returns the wrapped station.
func (n *SimNode) Station() *stack.Station { return n.station }

// TriggerDENM models POST /trigger_denm: the request reaches the node
// after the uplink HTTP latency, the DEN service originates the DENM,
// and the response callback fires after the downlink latency. The
// callback runs on the kernel; it may be nil.
func (n *SimNode) TriggerDENM(req TriggerRequest, cb func(messages.ActionID, error)) {
	parent := n.p.Current()
	if parent == nil {
		parent = n.p.Find(tracing.KeyChain)
	}
	sp := n.p.StartChild(parent, "openc2x.trigger_denm", "openc2x", n.kernel.Now())
	if n.station.Crashed() {
		sp.Drop(n.kernel.Now(), "node_down")
		if cb != nil {
			n.kernel.ScheduleFn(nodeDownLatency, func() { cb(messages.ActionID{}, ErrNodeDown) })
		}
		return
	}
	if n.Faults != nil {
		switch n.Faults.TriggerVerdict(n.kernel.Now()) {
		case HTTPTimeout:
			sp.Drop(n.kernel.Now(), "http_timeout")
			if cb != nil {
				n.kernel.ScheduleFn(RequestTimeout, func() { cb(messages.ActionID{}, ErrRequestTimeout) })
			}
			return
		case HTTPError:
			sp.Drop(n.kernel.Now(), "http_error")
			if cb != nil {
				rtt := n.lat.Trigger.sample(n.rng) + n.lat.Trigger.sample(n.rng)
				n.kernel.ScheduleFn(rtt, func() { cb(messages.ActionID{}, ErrServerError) })
			}
			return
		}
	}
	up := n.lat.Trigger.sample(n.rng)
	n.mTrigUp.ObserveDuration(up)
	n.kernel.ScheduleFn(up, func() {
		n.TriggerCount++
		n.mTriggers.Inc()
		var id messages.ActionID
		var err error
		n.p.Scope(sp, func() {
			id, err = n.station.DEN.Trigger(den.EventRequest{
				EventType: messages.EventType{
					CauseCode:    messages.CauseCode(req.CauseCode),
					SubCauseCode: messages.SubCauseCode(req.SubCauseCode),
				},
				Position:           req.Position(),
				Quality:            messages.InformationQuality(req.Quality),
				Validity:           time.Duration(req.ValiditySeconds) * time.Second,
				RelevanceRadius:    req.RadiusMetres,
				EventSpeedMS:       req.SpeedMS,
				EventHeadingRad:    req.HeadingRad,
				RepetitionInterval: time.Duration(req.RepetitionIntervalMS) * time.Millisecond,
				RepetitionDuration: time.Duration(req.RepetitionDurationMS) * time.Millisecond,
			})
		})
		if err != nil {
			sp.Drop(n.kernel.Now(), "trigger_error")
		} else {
			sp.End(n.kernel.Now())
		}
		if cb != nil {
			down := n.lat.Trigger.sample(n.rng)
			n.mTrigDown.ObserveDuration(down)
			n.kernel.ScheduleFn(down, func() { cb(id, err) })
		}
	})
}

// RequestDENM models POST /request_denm: after the uplink latency the
// mailbox is drained; the callback receives the batch (possibly empty,
// the HTTP 200 of the paper) after the downlink latency. Failed
// requests (node down, injected fault) are silently dropped; clients
// that must distinguish them use RequestDENMResult.
func (n *SimNode) RequestDENM(cb func([]ReceivedDENM)) {
	if cb == nil {
		return
	}
	n.RequestDENMResult(func(batch []ReceivedDENM, err error) {
		if err == nil {
			cb(batch)
		}
	})
}

// RequestDENMResult is RequestDENM with failure reporting: the
// callback receives ErrNodeDown (crashed station, observed fast),
// ErrRequestTimeout (after the RequestTimeout client deadline) or
// ErrServerError. On any error the mailbox is left untouched, so
// messages survive for the next successful poll.
func (n *SimNode) RequestDENMResult(cb func([]ReceivedDENM, error)) {
	if cb == nil {
		return
	}
	if n.station.Crashed() {
		n.kernel.ScheduleFn(nodeDownLatency, func() { cb(nil, ErrNodeDown) })
		return
	}
	if n.Faults != nil {
		switch n.Faults.PollVerdict(n.kernel.Now()) {
		case HTTPTimeout:
			n.kernel.ScheduleFn(RequestTimeout, func() { cb(nil, ErrRequestTimeout) })
			return
		case HTTPError:
			rtt := n.lat.Poll.sample(n.rng) + n.lat.Poll.sample(n.rng)
			n.kernel.ScheduleFn(rtt, func() { cb(nil, ErrServerError) })
			return
		}
	}
	up := n.lat.Poll.sample(n.rng)
	n.mPollUp.ObserveDuration(up)
	n.kernel.ScheduleFn(up, func() {
		n.PollCount++
		n.mPolls.Inc()
		batch := n.mailbox
		n.mailbox = nil
		now := n.kernel.Now()
		for _, at := range n.mailboxAt {
			n.mResidency.ObserveDuration(now - at)
		}
		n.mailboxAt = nil
		spans := n.mailboxSpans
		n.mailboxSpans = nil
		var delivery *tracing.Span
		for _, msp := range spans {
			msp.End(now)
			if delivery == nil && msp != nil {
				// The poll delivers the whole batch in one response; hang
				// the delivery span off the oldest waiting message.
				delivery = n.p.StartChild(msp, "openc2x.poll_delivery", "openc2x", now)
				delivery.SetAttr("batch", fmt.Sprintf("%d", len(batch)))
				n.p.Bind(tracing.KeyPoll(n.station.Name()), delivery)
			}
		}
		down := n.lat.Poll.sample(n.rng)
		n.mPollDown.ObserveDuration(down)
		n.kernel.ScheduleFn(down, func() {
			n.p.Scope(delivery, func() { cb(batch, nil) })
			delivery.End(n.kernel.Now())
		})
	})
}

// DropMailbox wipes queued DENMs without delivering them — the state
// loss of a node crash. Open mailbox spans end with the given drop
// reason. Returns the number of messages lost.
func (n *SimNode) DropMailbox(reason string) int {
	dropped := len(n.mailbox)
	now := n.kernel.Now()
	for _, sp := range n.mailboxSpans {
		sp.Drop(now, reason)
	}
	n.mailbox = nil
	n.mailboxAt = nil
	n.mailboxSpans = nil
	return dropped
}

// LastHeard reports the kernel time the wrapped station last delivered
// a CAM or DENM to the application — the heartbeat-freshness signal a
// polling client uses to judge V2X connectivity.
func (n *SimNode) LastHeard() time.Duration { return n.station.LastRx() }

// String implements fmt.Stringer.
func (n *SimNode) String() string {
	return fmt.Sprintf("openc2x(%s)", n.station.Name())
}
