// Package clock models node-local clocks on top of a shared time base.
//
// The paper synchronises all testbed platforms (edge node, RSU, OBU,
// vehicle ECU) with NTP so that per-step timestamps collected on
// different machines can be subtracted meaningfully. NTP leaves a
// residual offset on each host (typically a few hundred microseconds to
// a couple of milliseconds on a LAN). This package reproduces that: a
// Source provides true time (virtual kernel time in simulation, wall
// time in daemons), and an NTPClock derives a per-node reading that is
// true time plus a slowly wandering residual offset.
package clock

import (
	"math/rand"
	"time"
)

// Source yields the true reference time.
type Source interface {
	Now() time.Duration
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func() time.Duration

// Now implements Source.
func (f SourceFunc) Now() time.Duration { return f() }

// NTPModel describes the residual synchronisation error of an
// NTP-disciplined host clock.
type NTPModel struct {
	// OffsetStdDev is the standard deviation of the initial residual
	// offset from true time.
	OffsetStdDev time.Duration
	// JitterStdDev is the per-reading jitter (quantisation, interrupt
	// latency) added on every Now call.
	JitterStdDev time.Duration
	// DriftPPM is the frequency error of the local oscillator between
	// NTP corrections, in parts per million.
	DriftPPM float64
	// ResyncInterval is how often NTP re-disciplines the clock,
	// resampling the residual offset. Zero disables resync.
	ResyncInterval time.Duration
}

// DefaultLANNTP is a typical residual error profile for hosts on the
// same switched LAN, as in the paper's laboratory setup.
func DefaultLANNTP() NTPModel {
	return NTPModel{
		OffsetStdDev:   300 * time.Microsecond,
		JitterStdDev:   50 * time.Microsecond,
		DriftPPM:       5,
		ResyncInterval: 16 * time.Second,
	}
}

// PerfectNTP returns a model with no residual error, useful for tests
// that need exact cross-node arithmetic.
func PerfectNTP() NTPModel { return NTPModel{} }

// NTPClock is a node-local clock: true time plus residual NTP error.
// It is deterministic given its random stream.
type NTPClock struct {
	src        Source
	model      NTPModel
	rng        *rand.Rand
	offset     time.Duration
	lastResync time.Duration
}

// NewNTP returns a node clock reading src through the given error
// model. rng must not be nil unless the model is error-free.
func NewNTP(src Source, model NTPModel, rng *rand.Rand) *NTPClock {
	c := &NTPClock{src: src, model: model, rng: rng}
	c.resample()
	return c
}

func (c *NTPClock) resample() {
	if c.model.OffsetStdDev > 0 {
		c.offset = time.Duration(c.rng.NormFloat64() * float64(c.model.OffsetStdDev))
	}
	c.lastResync = c.src.Now()
}

// Now returns the node-local reading of the current instant.
func (c *NTPClock) Now() time.Duration {
	t := c.src.Now()
	if c.model.ResyncInterval > 0 && t-c.lastResync >= c.model.ResyncInterval {
		c.resample()
	}
	reading := t + c.offset
	if c.model.DriftPPM != 0 {
		reading += time.Duration(float64(t-c.lastResync) * c.model.DriftPPM / 1e6)
	}
	if c.model.JitterStdDev > 0 {
		reading += time.Duration(c.rng.NormFloat64() * float64(c.model.JitterStdDev))
	}
	return reading
}

// ITSEpoch is the TAI epoch used by ETSI ITS timestamps
// (2004-01-01T00:00:00Z). TimestampIts values count milliseconds since
// this epoch, modulo 2^32 for the wrapped variants.
var ITSEpoch = time.Date(2004, time.January, 1, 0, 0, 0, 0, time.UTC)

// SimEpoch is the absolute wall-clock instant that virtual time zero
// corresponds to. It is fixed (rather than time.Now at init) so runs
// are reproducible; experiments may override per run via TimestampIts'
// base argument.
var SimEpoch = time.Date(2023, time.March, 15, 10, 0, 0, 0, time.UTC)

// TimestampIts converts a virtual time (duration since SimEpoch) into
// an ETSI ITS timestamp: milliseconds elapsed since ITSEpoch.
func TimestampIts(virtual time.Duration) uint64 {
	abs := SimEpoch.Add(virtual)
	return uint64(abs.Sub(ITSEpoch) / time.Millisecond)
}
