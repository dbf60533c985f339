// Decentralized Congestion Control (ETSI TS 102 687, reactive
// profile): each station measures the channel-busy ratio (CBR) of its
// radio over a rolling window and maps the smoothed value onto a
// state machine whose states bound the CAM inter-transmission time.
// Dense traffic raises the CBR, stations back off their CAM rate, and
// the channel stays below congestion collapse — the behaviour the
// city-scale density sweep exercises.
package radio

import (
	"fmt"
	"time"

	"itsbed/internal/flight"
	"itsbed/internal/sim"
)

// DefaultCBRInterval is the CBR monitoring interval (TS 102 687 uses
// 100 ms probes).
const DefaultCBRInterval = 100 * time.Millisecond

// DefaultCBRWindow is how many monitoring intervals the rolling CBR
// average spans (the standard smooths over the last two).
const DefaultCBRWindow = 2

// CBRMeter samples one interface's channel-busy ratio on a fixed
// monitoring interval and averages the most recent samples in a ring.
// All state is driven by the simulation kernel, so readings are
// deterministic.
type CBRMeter struct {
	iface    *Interface
	interval time.Duration
	// ring holds the last len(ring) instantaneous CBR samples;
	// head is the next slot to overwrite, n the number filled.
	ring     []float64
	head     int
	n        int
	prevBusy time.Duration
}

// NewCBRMeter attaches a CBR meter to the interface, sampling every
// interval (zero selects DefaultCBRInterval) over a rolling window of
// window samples (zero or negative selects DefaultCBRWindow).
func NewCBRMeter(kernel *sim.Kernel, iface *Interface, interval time.Duration, window int) *CBRMeter {
	if interval <= 0 {
		interval = DefaultCBRInterval
	}
	if window <= 0 {
		window = DefaultCBRWindow
	}
	m := &CBRMeter{
		iface:    iface,
		interval: interval,
		ring:     make([]float64, window),
	}
	kernel.Every(interval, interval, m.sample)
	return m
}

// sample closes one monitoring interval: the busy fraction since the
// previous sample enters the ring, overwriting the oldest entry once
// the window is full (wraparound).
func (m *CBRMeter) sample() {
	busy := m.iface.ChannelBusyTime()
	inst := float64(busy-m.prevBusy) / float64(m.interval)
	m.prevBusy = busy
	if inst < 0 {
		inst = 0
	}
	if inst > 1 {
		inst = 1
	}
	m.ring[m.head] = inst
	m.head = (m.head + 1) % len(m.ring)
	if m.n < len(m.ring) {
		m.n++
	}
}

// CBR returns the rolling average of the filled window, zero before
// the first interval has closed.
func (m *CBRMeter) CBR() float64 {
	if m.n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < m.n; i++ {
		sum += m.ring[i]
	}
	return sum / float64(m.n)
}

// ReactiveProfile is a DCC reactive state table: Thresholds[i] is the
// CBR at which state i+1 begins; Intervals[i] is state i's minimum
// message inter-transmission time. len(Intervals) == len(Thresholds)+1.
type ReactiveProfile struct {
	Thresholds []float64
	Intervals  []time.Duration
}

// DefaultReactiveProfile is the TS 102 687 reactive profile as
// commonly deployed for ITS-G5: Relaxed below 19% CBR, three Active
// states, Restrictive above 43% with a 540 ms floor.
func DefaultReactiveProfile() ReactiveProfile {
	return ReactiveProfile{
		Thresholds: []float64{0.19, 0.27, 0.35, 0.43},
		Intervals: []time.Duration{
			60 * time.Millisecond,  // Relaxed
			100 * time.Millisecond, // Active 1
			180 * time.Millisecond, // Active 2
			260 * time.Millisecond, // Active 3
			540 * time.Millisecond, // Restrictive
		},
	}
}

// Validate checks the state table's structural invariants: n+1
// intervals for n thresholds, thresholds strictly increasing within
// (0, 1), and intervals positive and non-decreasing — a higher
// congestion state must never allow faster transmission, or the
// controller would amplify load exactly when it should shed it.
func (p ReactiveProfile) Validate() error {
	if len(p.Intervals) == 0 || len(p.Intervals) != len(p.Thresholds)+1 {
		return fmt.Errorf("dcc: %d intervals for %d thresholds, want n+1",
			len(p.Intervals), len(p.Thresholds))
	}
	for i, th := range p.Thresholds {
		if th <= 0 || th >= 1 {
			return fmt.Errorf("dcc: threshold %d is %v, want within (0, 1)", i, th)
		}
		if i > 0 && th <= p.Thresholds[i-1] {
			return fmt.Errorf("dcc: thresholds not strictly increasing at %d (%v after %v)",
				i, th, p.Thresholds[i-1])
		}
	}
	for i, iv := range p.Intervals {
		if iv <= 0 {
			return fmt.Errorf("dcc: interval %d is %v, want positive", i, iv)
		}
		if i > 0 && iv < p.Intervals[i-1] {
			return fmt.Errorf("dcc: interval shrinks at state %d (%v after %v)",
				i, iv, p.Intervals[i-1])
		}
	}
	return nil
}

// DCC is one station's reactive congestion controller: it owns a CBR
// meter and exposes the current state's inter-transmission floor. It
// satisfies the CA facility's TxGate hook.
type DCC struct {
	meter   *CBRMeter
	profile ReactiveProfile
	kernel  *sim.Kernel

	// Flight, when enabled, receives dcc.state events on every state
	// transition observed at the gate and an edge-triggered
	// dcc.throttle event when the gate starts answering above the
	// Relaxed floor. Set it right after NewDCC, before traffic starts.
	Flight flight.Hook

	// lastState is the reactive state of the previous gate query;
	// throttling tracks the edge so rings are not flooded with one
	// event per throttled CAM check.
	lastState    int
	wasThrottled bool

	// Throttled counts gate queries answered with an interval above
	// the Relaxed floor (diagnostics; deterministic).
	Throttled uint64
}

// NewDCC attaches a reactive DCC controller to the interface with the
// given profile. Any profile failing Validate — including the zero
// value — falls back to DefaultReactiveProfile, so a malformed table
// can never leave the channel without congestion control.
func NewDCC(kernel *sim.Kernel, iface *Interface, profile ReactiveProfile) *DCC {
	if profile.Validate() != nil {
		profile = DefaultReactiveProfile()
	}
	return &DCC{
		meter:   NewCBRMeter(kernel, iface, DefaultCBRInterval, DefaultCBRWindow),
		profile: profile,
		kernel:  kernel,
	}
}

// State returns the index of the current reactive state (0 = Relaxed).
func (d *DCC) State() int {
	cbr := d.meter.CBR()
	s := 0
	for s < len(d.profile.Thresholds) && cbr >= d.profile.Thresholds[s] {
		s++
	}
	return s
}

// CBR exposes the smoothed channel-busy ratio the controller acts on.
func (d *DCC) CBR() float64 { return d.meter.CBR() }

// MinInterval returns the current state's minimum inter-transmission
// time and counts throttled gate queries. It implements the facilities'
// TxGate and is the transmit path's query: each call may move the
// Throttled counter, so read the state for diagnostics with State.
func (d *DCC) MinInterval() time.Duration {
	s := d.State()
	iv := d.profile.Intervals[s]
	if s != d.lastState {
		d.Flight.Record(d.kernel.Now(), flight.DCCState, uint8(s), int64(d.lastState), 0)
		d.lastState = s
	}
	if iv > d.profile.Intervals[0] {
		d.Throttled++
		if !d.wasThrottled {
			d.Flight.Record(d.kernel.Now(), flight.DCCThrottle, 0, int64(iv), 0)
		}
		d.wasThrottled = true
	} else {
		d.wasThrottled = false
	}
	return iv
}
