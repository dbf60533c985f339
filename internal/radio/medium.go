package radio

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"itsbed/internal/flight"
	"itsbed/internal/geo"
	"itsbed/internal/metrics"
	"itsbed/internal/sim"
	"itsbed/internal/trace"
	"itsbed/internal/tracing"
)

// ObstructionModel adds environment-dependent attenuation per link
// (walls, the blind corner panel). world.Map satisfies it.
type ObstructionModel interface {
	ObstructionLossDB(a, b geo.Point) float64
}

// FaultModel injects deterministic channel faults into the medium:
// whole-channel blackouts, interference bursts raising the noise
// floor, and forced per-link frame drops (burst loss / corruption).
// Implementations must be deterministic functions of the simulation
// state; faults.Injector satisfies it.
type FaultModel interface {
	// BlackoutAt reports whether the channel is wiped out at now.
	BlackoutAt(now time.Duration) bool
	// ExtraNoiseDB adds to every receiver's noise floor at now.
	ExtraNoiseDB(now time.Duration) float64
	// LinkDrop decides whether a frame on the directed link src→dst is
	// forcibly lost; reason labels the drop span when it is.
	LinkDrop(now time.Duration, src, dst string) (reason string, drop bool)
}

// MediumConfig parameterises the shared broadcast medium. Without
// Obstructions, the medium decides sensitivity and carrier sense from
// a per-link radius cache of 8 bytes per directed link, n² for n
// attached interfaces, with every outcome equal to the exact
// path-loss comparison.
type MediumConfig struct {
	PathLoss PathLossModel
	// Obstructions, when set, contributes per-link penetration loss —
	// the shadowing model the paper lists as future work.
	Obstructions ObstructionModel
	// DisableGrid forces the brute-force O(N²) reception path: every
	// transmission is evaluated against every attached interface. By
	// default the medium culls receivers with a spatial grid sized from
	// the maximum communication range, which is frame-for-frame
	// identical to the brute-force path (the culling bound is
	// conservative: a culled receiver is provably below the
	// sensitivity threshold). Grid culling is automatically disabled
	// when a Tracer or FaultModel is configured, because those consume
	// per-receiver state (drop spans, Gilbert–Elliott chains) for
	// out-of-range receivers too.
	DisableGrid bool
	// GridSlackM widens the culling radius to absorb receiver movement
	// between re-binnings: an interface is re-binned when it transmits
	// and on a periodic tick (DefaultGridRebinInterval), so the slack
	// must exceed the distance any station travels within one tick
	// (25 m covers 100 m/s at the default 250 ms). Zero selects 25 m.
	GridSlackM float64
	// NoiseFloorDBm of the receivers; zero selects the default.
	NoiseFloorDBm float64
	// SensitivityDBm below which frames cannot be decoded; zero
	// selects the default.
	SensitivityDBm float64
	// CarrierSenseDBm above which the channel is sensed busy; zero
	// selects the default.
	CarrierSenseDBm float64
	// Faults, when non-nil, screens every frame reception for injected
	// channel faults (blackouts, noise bursts, per-link loss).
	Faults FaultModel
	// Sink receives radio_* counters and latency histograms (frame
	// outcomes, per-AC airtime and EDCA access delay), per-frame spans
	// (EDCA access delay, airtime, and per-receiver outcomes; drops
	// carry a drop_reason) and per-interface tx/rx/drop flight events.
	// Unlike a tracer and Faults the flight recorder does NOT disable
	// grid culling: per-receiver sensitivity drops are deliberately
	// never recorded (the grid bulk-accounts them without visiting the
	// receiver), so the event stream is identical on the grid and
	// brute-force paths.
	Sink trace.Sink
}

func (c *MediumConfig) applyDefaults() {
	if c.NoiseFloorDBm == 0 {
		c.NoiseFloorDBm = NoiseFloorDBm
	}
	if c.SensitivityDBm == 0 {
		c.SensitivityDBm = DefaultSensitivityDBm
	}
	if c.CarrierSenseDBm == 0 {
		c.CarrierSenseDBm = DefaultCarrierSenseDBm
	}
	if c.PathLoss.Exponent == 0 {
		c.PathLoss = DefaultIndoorPathLoss()
	}
	if c.GridSlackM == 0 {
		c.GridSlackM = DefaultGridSlackM
	}
	if c.GridSlackM < 0 {
		c.GridSlackM = 0
	}
}

// DefaultGridSlackM is the default culling-radius slack absorbing
// station movement between re-binnings.
const DefaultGridSlackM = 25.0

// DefaultGridRebinInterval is how often the medium folds every
// interface's true position back into the culling grid. Together with
// GridSlackM it bounds binning staleness: a station moving at up to
// GridSlackM / DefaultGridRebinInterval (100 m/s at the defaults) can
// never be culled while actually in range.
const DefaultGridRebinInterval = 250 * time.Millisecond

// transmission is one frame on the air.
type transmission struct {
	src *Interface
	// rx is what every receiver of the frame gets (see Frame).
	rx       Frame
	start    time.Duration
	end      time.Duration
	powerDBm float64
	// span covers the airtime; per-receiver outcome spans hang off it.
	span *tracing.Span
}

// interferer is a transmission overlapping the completing one, with
// its source position at the completion instant.
type interferer struct {
	t   *transmission
	pos geo.Point
}

// Medium is the shared 802.11p broadcast channel of one collision
// domain (the laboratory). Interfaces attach with a position; frames
// propagate to every other attached interface per the path-loss and
// SINR model.
type Medium struct {
	kernel  *sim.Kernel
	cfg     MediumConfig
	rng     *rand.Rand
	ifaces  []*Interface
	ongoing []*transmission
	// shadowSeed keys the order-independent per-link shadowing hash.
	shadowSeed uint64

	// grid is the spatial culling index, built lazily on first
	// transmit and invalidated by Attach (nil while brute-force).
	grid *Grid
	// cullRadius is the query radius: the conservative communication
	// range plus the re-binning slack.
	cullRadius float64
	// maxTxPowerDBm tracks the strongest attached transmitter; the
	// culling range derives from it.
	maxTxPowerDBm float64
	// candScratch is the reusable candidate-id buffer.
	candScratch []int
	// rebin periodically folds true positions back into the grid.
	rebin *sim.Ticker
	// cullCutoff2 is the squared no-slack culling range: receivers
	// farther than this are provably below both the sensitivity and
	// carrier-sense thresholds, so evaluate() skips the propagation
	// math entirely. Zero means "not yet derived"; infinite when the
	// range is unbounded.
	cullCutoff2 float64
	// linkCache memoises, per directed link, the squared distances at
	// which the receive power crosses the sensitivity and carrier-
	// sense thresholds (shadowing folded in), as 8-byte float32 pairs:
	// an n×n slab, 8 MB for a 1000-vehicle city. evaluate() then
	// decides the common below-sensitivity case with two float
	// compares instead of log-distance path-loss math, and re-derives
	// the float64 radii only for a distance within a float32 rounding
	// of one (see linkDecide). Invalid (and unused) when an obstruction
	// model makes loss position-dependent.
	linkCache []linkThreshold
	// bound holds rxBound's constants for this medium's path loss.
	bound rxBound

	// overlap lists the transmissions overlapping the one completing,
	// in m.ongoing order (the interference summation order), rebuilt by
	// complete and reused across completions.
	overlap []interferer
	// noiseMW and noiseDBm are the completing frame's noise floor,
	// injected noise bursts included.
	noiseMW, noiseDBm float64

	// FramesSent counts transmissions started on the medium.
	FramesSent uint64
	// FramesLost counts per-receiver losses (sensitivity or SINR).
	FramesLost uint64
	// FramesDelivered counts per-receiver successful deliveries.
	FramesDelivered uint64
	// FramesCulled counts per-receiver sensitivity losses that the
	// spatial grid skipped without evaluating (always zero on the
	// brute-force path; included in FramesLost either way).
	FramesCulled uint64

	mSent, mDelivered, mLostSens, mLostSINR *metrics.Counter
	mLostBlackout, mLostFault               *metrics.Counter
	mAirtime                                [ACBackground + 1]*metrics.Histogram
}

// NewMedium creates a broadcast medium on the kernel.
func NewMedium(kernel *sim.Kernel, cfg MediumConfig) *Medium {
	cfg.applyDefaults()
	m := &Medium{
		kernel:     kernel,
		cfg:        cfg,
		rng:        kernel.Rand("radio.medium"),
		shadowSeed: kernel.Rand("radio.medium.shadow").Uint64(),
		bound:      newRxBound(cfg),
	}
	r := cfg.Sink.Metrics
	m.mSent = r.Counter("radio_frames_sent_total")
	m.mDelivered = r.Counter("radio_frames_delivered_total")
	m.mLostSens = r.Counter("radio_frames_lost_total", metrics.L("reason", "sensitivity"))
	m.mLostSINR = r.Counter("radio_frames_lost_total", metrics.L("reason", "sinr"))
	if cfg.Faults != nil {
		// Registered only under fault injection so fault-free runs
		// keep their metric snapshot unchanged.
		m.mLostBlackout = r.Counter("radio_frames_lost_total", metrics.L("reason", "blackout"))
		m.mLostFault = r.Counter("radio_frames_lost_total", metrics.L("reason", "fault"))
	}
	for ac := ACVoice; ac <= ACBackground; ac++ {
		m.mAirtime[ac] = r.Histogram("radio_airtime_seconds", metrics.L("ac", ac.String()))
	}
	return m
}

// ShadowBoundSigmas bounds the per-link shadowing at ±2√3 standard
// deviations — the support of the Irwin–Hall(4) sum the medium draws
// it from. The bound is what makes spatial culling sound: beyond the
// culling range not even maximal constructive shadowing can lift a
// frame above the sensitivity threshold.
var ShadowBoundSigmas = 2 * math.Sqrt(3)

// shadowingDB returns the stable shadowing for the link a↔b in dB.
// The value is a pure function of (medium seed, link), independent of
// the order links are first evaluated in, so the grid-culled and
// brute-force reception paths see identical channels. It is drawn
// from a scaled Irwin–Hall(4) distribution: approximately normal with
// the configured sigma, hard-bounded at ±2√3 σ.
func (m *Medium) shadowingDB(a, b int) float64 {
	sigma := m.cfg.PathLoss.ShadowingSigmaDB
	if sigma == 0 {
		return 0
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	h := splitmix64(m.shadowSeed ^ uint64(lo)<<32 ^ uint64(uint32(hi)))
	var s float64
	for i := 0; i < 4; i++ {
		h = splitmix64(h)
		s += float64(h>>11) / (1 << 53)
	}
	// Sum of 4 uniforms: mean 2, variance 1/3; rescale to unit sigma.
	return (s - 2) * math.Sqrt(3) * sigma
}

// splitmix64 is the SplitMix64 mixing function (public domain), used
// to derive per-link shadowing deterministically.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// gridEligible reports whether spatial culling may be used at all:
// tracers record per-receiver drop spans and fault models advance
// per-link state for every receiver, so both force the full scan.
func (m *Medium) gridEligible() bool {
	return !m.cfg.DisableGrid && m.cfg.Sink.Tracer == nil && m.cfg.Faults == nil
}

// CullRangeM returns the conservative maximum communication range:
// the distance beyond which a frame from the strongest attached
// transmitter is below both the sensitivity and the carrier-sense
// thresholds even with maximal constructive shadowing and no
// obstruction loss — so a receiver beyond it neither decodes the
// frame nor senses the channel busy.
func (m *Medium) CullRangeM() float64 {
	thresh := m.cfg.SensitivityDBm
	if m.cfg.CarrierSenseDBm < thresh {
		thresh = m.cfg.CarrierSenseDBm
	}
	margin := m.maxTxPowerDBm - m.cfg.PathLoss.ReferenceLossDB +
		ShadowBoundSigmas*m.cfg.PathLoss.ShadowingSigmaDB - thresh
	if m.cfg.PathLoss.Exponent <= 0 {
		return math.Inf(1)
	}
	if margin <= 0 {
		return 1
	}
	return math.Pow(10, margin/(10*m.cfg.PathLoss.Exponent))
}

// ensureGrid builds the culling index when enabled and not yet built:
// cell size (= query radius) is the culling range plus the re-binning
// slack, and every attached interface is binned at its current
// position. Attach invalidates the grid so late attachments and tx-
// power increases re-derive the cell size.
func (m *Medium) ensureGrid() {
	if m.grid != nil || !m.gridEligible() {
		return
	}
	m.cullRadius = m.CullRangeM() + m.cfg.GridSlackM
	if math.IsInf(m.cullRadius, 1) || math.IsNaN(m.cullRadius) {
		return // an unbounded range culls nothing; stay brute-force
	}
	m.grid = NewGrid(m.cullRadius)
	for _, iface := range m.ifaces {
		m.grid.Insert(iface.id, iface.Position())
	}
	if m.rebin == nil {
		m.rebin = m.kernel.Every(DefaultGridRebinInterval, DefaultGridRebinInterval, func() {
			if m.grid == nil {
				return // invalidated by Attach; rebuilt on next transmit
			}
			for _, iface := range m.ifaces {
				m.grid.Move(iface.id, iface.pos())
			}
		})
	}
}

// cutoff2 returns (lazily deriving) the squared no-slack culling
// range used by evaluate's fast rejection path.
func (m *Medium) cutoff2() float64 {
	if m.cullCutoff2 == 0 {
		r := m.CullRangeM()
		m.cullCutoff2 = r * r
	}
	return m.cullCutoff2
}

// linkThreshold caches one directed link's decision radii in 8 bytes.
// sens2 and cs2 hold, rounded to float32, the squared distances at
// which the link's receive power (tx power − path loss − shadowing)
// falls below the sensitivity and carrier-sense thresholds; −1
// encodes "below threshold even at the 1 m reference distance". A
// derived radius is −1 or at least 1 (LossDB clamps at 1 m), so a
// zero sens2 marks a link not derived yet.
type linkThreshold struct {
	sens2, cs2 float32
}

// linkBand is the relative half-width of the band around a cached
// radius inside which only the exact float64 radius decides a
// comparison. A cached radius r is rounded from an x' within 1e-13 of
// the exact radius x (see cachedRadius2), and rounding to the nearest
// float32 moves x' by at most 2⁻²⁴|x'| while |x'| stays in float32's
// normal range, which it does for every finite cached radius
// (|x'| ≥ 1), so x lies within (2⁻²⁴+1e-13)(1+2⁻²³)|r| < 2⁻²³|r| of r.
// 2⁻²² doubles that, which also absorbs the 2⁻⁵³ rounding of the band
// edges computed in within.
const linkBand = 0x1p-22

// within decides d2 <= x for the exact radius x that r was rounded
// from, when d2 lies outside r's rounding band (ok). Inside the band,
// and always for r = +Inf (a radius beyond float32's range), ok is
// false and only x can decide.
func within(d2 float64, r float32) (in, ok bool) {
	w := float64(r)
	band := math.Abs(w) * linkBand
	if d2 < w-band {
		return true, true
	}
	if d2 > w+band {
		return false, true
	}
	return false, false
}

// linkFallbacks counts link decisions that needed the exact radii,
// rxFallbacks SINR decisions that rxBound left to the exact receive
// power, and sinrFallbacks SINR decisions that the enclosure left to
// the exact sum, for tests; none is a registered metric.
var linkFallbacks, rxFallbacks, sinrFallbacks atomic.Uint64

// link returns the cached radii for t's link to dst, deriving them on
// first use. Only called when thresholdsUsable.
func (m *Medium) link(t *transmission, dst *Interface) linkThreshold {
	n := len(m.ifaces)
	if m.linkCache == nil {
		m.linkCache = make([]linkThreshold, n*n)
	}
	lt := &m.linkCache[t.src.id*n+dst.id]
	if lt.sens2 == 0 {
		sens, cs := m.linkDecades(t, dst)
		lt.sens2, lt.cs2 = cachedRadius2(sens), cachedRadius2(cs)
	}
	return *lt
}

// linkDecades returns the decade margins of t's link to dst above the
// sensitivity and carrier-sense thresholds, shadowing folded in.
func (m *Medium) linkDecades(t *transmission, dst *Interface) (sens, cs float64) {
	sh := m.shadowingDB(t.src.id, dst.id)
	exp := 10 * m.cfg.PathLoss.Exponent
	base := t.powerDBm - m.cfg.PathLoss.ReferenceLossDB - sh
	return (base - m.cfg.SensitivityDBm) / exp, (base - m.cfg.CarrierSenseDBm) / exp
}

// exactRadii derives the float64 squared radii whose float32 roundings
// within linkBand the cache holds.
func (m *Medium) exactRadii(t *transmission, dst *Interface) (sens2, cs2 float64) {
	sens, cs := m.linkDecades(t, dst)
	return thresholdRadius2(sens), thresholdRadius2(cs)
}

// linkDecide reports whether dst, at squared distance d2 from t's
// source, senses t (d2 <= cs2) and can decode it (d2 <= sens2), for
// the exact radii of the link: the cached radii decide outside their
// rounding bands, exactRadii inside them.
func (m *Medium) linkDecide(t *transmission, dst *Interface, d2 float64) (sensed, decodable bool) {
	lt := m.link(t, dst)
	sensed, okCS := within(d2, lt.cs2)
	decodable, okSens := within(d2, lt.sens2)
	if okCS && okSens {
		return sensed, decodable
	}
	linkFallbacks.Add(1)
	sens2, cs2 := m.exactRadii(t, dst)
	return d2 <= cs2, d2 <= sens2
}

// thresholdRadius2 converts a decade margin into a squared threshold
// distance honouring LossDB's 1 m clamp: a negative margin means the
// power is below the threshold even at the reference distance.
func thresholdRadius2(decades float64) float64 {
	if decades < 0 {
		return -1
	}
	r := math.Pow(10, decades)
	return r * r
}

// cachedRadius2 is thresholdRadius2 rounded to float32, computed as
// e^(2·ln10·decades) with math.Exp in place of math.Pow. Before the
// rounding it is within 1e-13 relative of thresholdRadius2 wherever
// float32 holds the result (decades < 19.3): the Exp argument, at most
// 89, is rounded twice (< 2e-14) and Exp is within a few ulps, while
// Pow builds 10^⌊decades⌉ in at most five squarings and the square
// doubles its error (< 2e-14). Larger results round to +Inf, or to the
// largest float32 within the same bound, and e⁰ = 1, so a derived
// radius stays −1 or at least 1.
func cachedRadius2(decades float64) float32 {
	if decades < 0 {
		return -1
	}
	return float32(math.Exp(decades * (2 * math.Ln10)))
}

// thresholdsUsable reports whether the per-link radius cache may
// replace the exact power computation: path loss must be a pure
// monotone function of distance (no obstructions, positive exponent).
func (m *Medium) thresholdsUsable() bool {
	return m.cfg.Obstructions == nil && m.cfg.PathLoss.Exponent > 0
}

// Constants of rxBound.
const (
	// bitsPerDB converts dB to log2 units: 10^(x/10) = 2^(x·bitsPerDB).
	bitsPerDB = ln10over10 / math.Ln2
	// logitBits converts log2((1−u)/u) into the log2-mW shift of the
	// interference at which the success probability equals u.
	logitBits = ln10over10 / 2.2
	// linkLog2Slop bounds |log2 x − log2 r| for a cached radius r and
	// the real radius x it stands for, |x − r| < 2⁻²³·r (see linkBand):
	// 2⁻²³/ln2 stays below 1.45·2⁻²³.
	linkLog2Slop = 0x1.8p-23
	// rxBitsSlack, in log2 mW, absorbs the rounding between a real
	// receive power and rxPowerDBmAt's (under 1e-11 dB for the inputs
	// rxBound accepts), math.Pow's error in dbmToMilliwatt (1e-13
	// relative) and rxBound's own arithmetic (under 1e-12).
	rxBitsSlack = 0x1p-30
	// rxBoundPad is the relative margin by which rxBound's enclosure of
	// the interference sum must clear the limit; it holds the lemma's
	// 9.7e-11 (see enclose) and the enclosure's own float sums (1e-12).
	rxBoundPad = 1e-9
)

// rxBound decides SINR outcomes from enclosures of the receive powers
// built from the link cache, so that a decided reception costs no
// math.Hypot, math.Log10, shadowing hash, math.Exp or math.Pow.
//
// A link's receive power follows from its cached sensitivity radius r
// and the squared distance d2. With S the sensitivity, γ the exponent
// and x the real radius (the power falls to S at x), the real power is
// S + 5γ·log10(x/max(d2, 1)) dB, or, in log2 mW,
//
//	S·bitsPerDB + (γ/2)·(log2 x − log2 max(d2, 1)).
//
// floor bounds it from below with log2Floor(r/max(d2, 1)), less
// linkLog2Slop for x and rxBitsSlack for the rounding; the power lies
// within width above that floor. The limit L, the interference at
// which the success probability equals u, is in log2 mW the power less
// threshold·bitsPerDB plus logitBits·log2((1−u)/u): boundSINR encloses
// it the same way and takes at = exp2Floor of its floor. Each
// interferer's mW term lies between exp2Floor of its floor and that
// times termRatio; L lies between at and at·lossRatio/(1+rxBoundPad).
//
// The noise floor plus the partial sum of term floors above
// at·lossRatio proves the exact float sum S of capture at least
// L·(1+9.7e-11), so a loss; the noise plus termRatio times the full
// sum below at·(1−rxBoundPad) proves S at most L·(1−9.7e-11), so a
// delivery. By the lemma stated at enclose, both equal the exact
// decision for the draws and powers the enclosure accepts. Anything
// else, ties within the band included, falls back to the exact receive
// power and decideSINR.
type rxBound struct {
	// usable: a path-loss model within the ranges on which the rounding
	// bounds above hold. Only a medium without obstructions consults it.
	usable            bool
	sensBits, halfExp float64
	// width bounds a power's enclosure above its floor, in log2 mW.
	width float64
	// termRatio bounds an interferer's mW term over exp2Floor of its
	// floor; lossRatio bounds L over at, padded by rxBoundPad.
	termRatio, lossRatio float64
}

// newRxBound derives the bound's constants from the medium's
// configuration (defaults applied).
func newRxBound(cfg MediumConfig) rxBound {
	pl := cfg.PathLoss
	b := rxBound{
		usable: pl.Exponent >= 0.5 && pl.Exponent <= 100 &&
			math.Abs(pl.ReferenceLossDB) <= enclosedDBm && pl.ShadowingSigmaDB*ShadowBoundSigmas <= enclosedDBm &&
			math.Abs(cfg.SensitivityDBm) <= enclosedDBm,
		sensBits: cfg.SensitivityDBm * bitsPerDB,
		halfExp:  pl.Exponent / 2,
	}
	b.width = b.halfExp*(log2Width+2*linkLog2Slop) + 2*rxBitsSlack
	// math.Exp2 is within an ulp; the factor 1+1e-15 rounds it up.
	b.termRatio = exp2Ratio * math.Exp2(b.width) * (1 + 1e-15)
	b.lossRatio = exp2Ratio * math.Exp2(b.width+logitBits*log2Width+2*rxBitsSlack) * (1 + 1e-15) * (1 + rxBoundPad)
	return b
}

// floor returns a lower bound, in log2 mW, on the power of t's
// transmitter at squared distance d2 over a link whose cached radii
// are lt; the power lies within width above it. ok is false where the
// bound does not hold: a radius of −1 or +Inf, a tx power or a power
// out of the enclosed range.
func (b *rxBound) floor(t *transmission, lt linkThreshold, d2 float64) (bits float64, ok bool) {
	r := float64(lt.sens2)
	if d2 < 1 {
		d2 = 1 // LossDB's 1 m clamp
	}
	q := r / d2
	if !(r >= 1 && r <= math.MaxFloat32 && q >= 0x1p-1022 && math.Abs(t.powerDBm) <= enclosedDBm) {
		return 0, false
	}
	bits = b.sensBits + b.halfExp*(log2Floor(q)-linkLog2Slop) - rxBitsSlack
	return bits, bits >= -enclosedDBm*bitsPerDB && bits+b.width <= enclosedDBm*bitsPerDB
}

// boundSINR decides the SINR outcome of t at dst, at squared distance
// d2 from its source, for the receiver's draw u from rxBound's
// enclosures; ok is false when they cannot decide.
func (m *Medium) boundSINR(u float64, t *transmission, dst *Interface, dstPos geo.Point, d2 float64) (lost, ok bool) {
	b := &m.bound
	thr := t.src.cfg.MCS.SNRThresholdDB
	if !b.usable || !(u >= enclosedMinU && u <= enclosedMaxU) || len(m.overlap) > enclosedTerms ||
		!(math.Abs(thr) <= enclosedDBm) || !(math.Abs(m.noiseDBm) <= enclosedDBm) {
		return false, false
	}
	rx, ok := b.floor(t, m.link(t, dst), d2)
	if !ok {
		return false, false
	}
	at := exp2Floor(rx - thr*bitsPerDB + logitBits*log2Floor((1-u)/u) - rxBitsSlack)
	lossAt := at * b.lossRatio
	sum, terms := m.noiseMW, 0.0
	if sum > lossAt {
		return true, true // capture.start's noise-floor loss
	}
	for _, o := range m.overlap {
		if o.t.src == dst {
			continue
		}
		p, ok := b.floor(o.t, m.link(o.t, dst), sqDist(o.pos, dstPos))
		if !ok {
			return false, false
		}
		mw := exp2Floor(p)
		if sum += mw; sum > lossAt {
			return true, true
		}
		terms += mw
	}
	return false, m.noiseMW+terms*b.termRatio < at*(1-rxBoundPad)
}

// GridActive reports whether the spatial culling index is in use.
func (m *Medium) GridActive() bool { return m.grid != nil }

// rxPowerDBm computes the power of src's signal at dst.
func (m *Medium) rxPowerDBm(t *transmission, dst *Interface) float64 {
	return m.rxPowerDBmAt(t, t.src.pos(), dst, dst.pos())
}

// rxPowerDBmAt is rxPowerDBm with both positions precomputed, for the
// hot reception loop (position funcs walk route geometry).
func (m *Medium) rxPowerDBmAt(t *transmission, a geo.Point, dst *Interface, b geo.Point) float64 {
	rx := t.powerDBm - m.cfg.PathLoss.LossDB(a.DistanceTo(b)) - m.shadowingDB(t.src.id, dst.id)
	if m.cfg.Obstructions != nil {
		rx -= m.cfg.Obstructions.ObstructionLossDB(a, b)
	}
	return rx
}

// busyAt reports whether iface senses the channel busy at the current
// instant: any ongoing transmission above the carrier-sense level, or
// its own frame still on the air (the radio is half-duplex).
func (m *Medium) busyAt(iface *Interface) bool {
	now := m.kernel.Now()
	var pos geo.Point
	if len(m.ongoing) > 0 {
		pos = iface.pos()
	}
	for _, t := range m.ongoing {
		if t.end <= now {
			continue
		}
		if t.src == iface || m.senses(t, iface, pos) {
			return true
		}
	}
	return false
}

// senses reports whether iface hears t above the carrier-sense level,
// with the same fast distance rejection as evaluate.
func (m *Medium) senses(t *transmission, iface *Interface, pos geo.Point) bool {
	srcPos := t.src.pos()
	d2 := sqDist(srcPos, pos)
	if d2 > m.cutoff2() {
		return false
	}
	if m.thresholdsUsable() {
		sensed, _ := m.linkDecide(t, iface, d2)
		return sensed
	}
	return m.rxPowerDBmAt(t, srcPos, iface, pos) >= m.cfg.CarrierSenseDBm
}

// busyUntil returns the latest end time of transmissions iface must
// defer to (sensed or its own), or zero when idle.
func (m *Medium) busyUntil(iface *Interface) time.Duration {
	now := m.kernel.Now()
	var until time.Duration
	var pos geo.Point
	if len(m.ongoing) > 0 {
		pos = iface.pos()
	}
	for _, t := range m.ongoing {
		if t.end <= now {
			continue
		}
		if (t.src == iface || m.senses(t, iface, pos)) && t.end > until {
			until = t.end
		}
	}
	return until
}

// transmit puts a frame on the air from iface and schedules reception
// outcomes at every other interface. parent is the frame's channel-
// access span (nil when tracing is off).
func (m *Medium) transmit(iface *Interface, frame []byte, ac AccessCategory, parent *tracing.Span) {
	now := m.kernel.Now()
	air := Airtime(len(frame), iface.cfg.MCS)
	m.ensureGrid()
	if m.grid != nil {
		m.grid.Move(iface.id, iface.Position())
	}
	t := &transmission{
		src:      iface,
		rx:       Frame{Bytes: frame},
		start:    now,
		end:      now + air,
		powerDBm: iface.cfg.TxPowerDBm,
		span:     iface.p.StartChild(parent, "radio.air", "radio", now),
	}
	t.span.SetAttr("ac", ac.String())
	m.ongoing = append(m.ongoing, t)
	m.FramesSent++
	m.mSent.Inc()
	iface.p.Record(now, flight.RadioTx, 0, int64(len(frame)), 0)
	if ac >= ACVoice && ac <= ACBackground {
		m.mAirtime[ac].ObserveDuration(air)
	}
	m.kernel.ScheduleFn(air, func() {
		m.complete(t)
	})
}

// complete evaluates reception at each interface when the frame's
// airtime elapses, then retires the transmission. What every
// receiver's SINR decision shares is computed here once: the
// overlapping transmissions with their source positions (positions are
// pure functions of simulated time, and the time does not move during
// a completion) and the noise floor, raised by any injected burst.
func (m *Medium) complete(t *transmission) {
	now := m.kernel.Now()
	t.span.End(now)
	// The transmitter's own frame occupies its channel (half-duplex);
	// completions arrive in end-time order, so the per-interface busy
	// merge in noteBusy is an exact interval union.
	m.noteBusy(t.src, t)
	srcPos := t.src.pos()
	var blackout bool
	var extraNoiseDB float64
	if f := m.cfg.Faults; f != nil {
		blackout = f.BlackoutAt(now)
		extraNoiseDB = f.ExtraNoiseDB(now)
	}
	m.overlap = m.overlap[:0]
	for _, o := range m.ongoing {
		if o != t && o.start < t.end && o.end > t.start {
			m.overlap = append(m.overlap, interferer{t: o, pos: o.src.pos()})
		}
	}
	m.noiseMW = dbmToMilliwatt(m.cfg.NoiseFloorDBm + extraNoiseDB)
	m.noiseDBm = milliwattToDBm(m.noiseMW)
	if m.grid != nil {
		m.completeCulled(t, srcPos, now)
	} else {
		m.completeFull(t, srcPos, now, blackout)
	}
	// Retire the transmission. No wake-up pass is needed: an interface
	// with queued frames always has an access attempt in flight
	// (SendBroadcastAC starts one, and the defer path re-arms itself at
	// the end of each busy period), so completions have no observers.
	for i, o := range m.ongoing {
		if o == t {
			m.ongoing = append(m.ongoing[:i], m.ongoing[i+1:]...)
			break
		}
	}
}

// completeFull is the brute-force reception path: every attached
// interface is evaluated (and, under fault injection, screened).
func (m *Medium) completeFull(t *transmission, srcPos geo.Point, now time.Duration, blackout bool) {
	for _, dst := range m.ifaces {
		if dst == t.src {
			continue
		}
		if blackout {
			m.FramesLost++
			m.mLostBlackout.Inc()
			dst.p.RecordFrom(now, flight.RadioDrop, flight.DropBlackout, t.src.p.Hook, 0, 0)
			dst.p.StartChild(t.span, "radio.rx", "radio", now).Drop(now, "blackout")
			continue
		}
		if f := m.cfg.Faults; f != nil {
			if reason, drop := f.LinkDrop(now, t.src.cfg.Name, dst.cfg.Name); drop {
				m.FramesLost++
				m.mLostFault.Inc()
				code := flight.DropBurstLoss
				if reason == "fault_corruption" {
					code = flight.DropCorruption
				}
				dst.p.RecordFrom(now, flight.RadioDrop, code, t.src.p.Hook, 0, 0)
				dst.p.StartChild(t.span, "radio.rx", "radio", now).Drop(now, reason)
				continue
			}
		}
		m.evaluate(t, srcPos, dst, now)
	}
}

// completeCulled is the grid path: only interfaces binned within the
// culling radius of the transmitter are evaluated; the rest are
// accounted in bulk as sensitivity losses (which the conservative
// culling bound proves they are). Candidates are visited in id order
// so the SINR random draws replay exactly as on the brute-force path.
// The grid path never runs with a tracer or fault model attached (see
// gridEligible), so no per-receiver screening happens here.
func (m *Medium) completeCulled(t *transmission, srcPos geo.Point, now time.Duration) {
	cand := m.candScratch[:0]
	m.grid.Neighbors(srcPos, m.cullRadius, func(id int) {
		if id != t.src.id {
			cand = append(cand, id)
		}
	})
	sort.Ints(cand)
	m.candScratch = cand
	for _, id := range cand {
		m.evaluate(t, srcPos, m.ifaces[id], now)
	}
	if culled := uint64(len(m.ifaces) - 1 - len(cand)); culled > 0 {
		m.FramesCulled += culled
		m.FramesLost += culled
		m.mLostSens.Add(culled)
	}
}

// evaluate decides one receiver's outcome for the completed frame:
// channel-busy accounting, sensitivity, SINR capture, delivery.
//
// The SINR stage draws the receiver's one uniform u first. Without
// obstructions it is decided from rxBound's enclosures of the receive
// powers, which cost no exact power at all; the few receptions they
// leave open, and every reception under an obstruction model, get the
// exact receive power and decideSINR: the noise-floor test, then an
// enclosure of the interference sum with each term's mW from math.Exp,
// and only for a straddle the exact capture steps, summing term by
// term in m.overlap order. So every outcome and the random stream
// equal those of comparing u against the exact probability for every
// receiver.
func (m *Medium) evaluate(t *transmission, srcPos geo.Point, dst *Interface, now time.Duration) {
	dstPos := dst.pos()
	d2 := sqDist(srcPos, dstPos)
	if d2 > m.cutoff2() {
		// Beyond the conservative culling range the frame is provably
		// below both thresholds for any shadowing draw; skip all
		// propagation math. Obstructions only add loss.
		m.dropSensitivity(t, dst, now)
		return
	}
	var lost bool
	if m.thresholdsUsable() {
		// Decide carrier sense and sensitivity by comparing the squared
		// distance against the link's cached crossing radii, and the SINR
		// stage from bounds on the powers (rxBound): the log-distance
		// math runs only for the receptions those bounds leave open.
		sensed, decodable := m.linkDecide(t, dst, d2)
		if sensed {
			// The frame was sensed at this receiver: it occupied the
			// channel for CBR purposes whether or not it decodes.
			m.noteBusy(dst, t)
		}
		if !decodable {
			m.dropSensitivity(t, dst, now)
			return
		}
		u := m.rng.Float64()
		var ok bool
		if lost, ok = m.boundSINR(u, t, dst, dstPos, d2); !ok {
			rxFallbacks.Add(1)
			lost = m.exactSINR(u, t, dst, dstPos, m.rxPowerDBmAt(t, srcPos, dst, dstPos))
		}
	} else {
		rx := m.rxPowerDBmAt(t, srcPos, dst, dstPos)
		if rx >= m.cfg.CarrierSenseDBm {
			m.noteBusy(dst, t)
		}
		if rx < m.cfg.SensitivityDBm {
			m.dropSensitivity(t, dst, now)
			return
		}
		lost = m.exactSINR(m.rng.Float64(), t, dst, dstPos, rx)
	}
	if lost {
		m.FramesLost++
		m.mLostSINR.Inc()
		dst.FramesCorrupted++
		dst.mCorrupt.Inc()
		dst.p.RecordFrom(now, flight.RadioDrop, flight.DropSINR, t.src.p.Hook, 0, 0)
		dst.p.StartChild(t.span, "radio.rx", "radio", now).Drop(now, "sinr")
		return
	}
	m.FramesDelivered++
	m.mDelivered.Inc()
	dst.FramesReceived++
	dst.mRx.Inc()
	dst.p.RecordFrom(now, flight.RadioRx, flight.RxOK, t.src.p.Hook, int64(len(t.rx.Bytes)), 0)
	if dst.receive != nil {
		// All receivers share t.rx: frames are immutable once on the
		// air (the interface copied the caller's buffer at enqueue),
		// and the first receiver's parse serves the rest — see Frame.
		// Receiver processing happens in the airtime span's scope so
		// the receiving stack's spans join the sender's trace tree.
		dst.p.Scope(t.span, func() { dst.receive(&t.rx) })
	}
}

// exactSINR decides the SINR outcome of t at dst for the receiver's
// draw u from the exact receive power rx: every interferer's exact
// power, on top of the (possibly raised) noise floor, through
// decideSINR.
func (m *Medium) exactSINR(u float64, t *transmission, dst *Interface, dstPos geo.Point, rx float64) (lost bool) {
	lost, straddled := decideSINR(u, rx, t.src.cfg.MCS.SNRThresholdDB, m.noiseMW, m.noiseDBm,
		len(m.overlap), func(i int) (float64, bool) {
			o := m.overlap[i]
			if o.t.src == dst {
				return 0, false
			}
			return m.rxPowerDBmAt(o.t, o.pos, dst, dstPos), true
		})
	if straddled {
		sinrFallbacks.Add(1)
	}
	return lost
}

// dropSensitivity accounts one below-sensitivity reception.
func (m *Medium) dropSensitivity(t *transmission, dst *Interface, now time.Duration) {
	m.FramesLost++
	m.mLostSens.Inc()
	dst.p.StartChild(t.span, "radio.rx", "radio", now).Drop(now, "sensitivity")
}

// sqDist is the squared Euclidean distance between two points, for
// threshold comparisons that need no square root.
func sqDist(a, b geo.Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// noteBusy merges the transmission's airtime into the interface's
// channel-busy accumulator. Exactness relies on busy intervals being
// reported in non-decreasing end-time order, which holds because all
// reports happen at frame completion.
func (m *Medium) noteBusy(i *Interface, t *transmission) {
	s := t.start
	if i.busyEnd > s {
		s = i.busyEnd
	}
	if t.end > s {
		i.busyAccum += t.end - s
	}
	if t.end > i.busyEnd {
		i.busyEnd = t.end
	}
}

// InterfaceConfig parameterises one attached radio.
type InterfaceConfig struct {
	Name       string
	MCS        MCS
	TxPowerDBm float64
	// DefaultAC is the access category used when Send does not
	// specify one.
	DefaultAC AccessCategory
	// QueueCap bounds the transmit queue; excess frames are dropped
	// (as a full driver queue would). Zero selects 64.
	QueueCap int
}

func (c *InterfaceConfig) applyDefaults() {
	if c.MCS.BitsPerSymbol == 0 {
		c.MCS = MCS6Mbps
	}
	if c.TxPowerDBm == 0 {
		c.TxPowerDBm = DefaultTxPowerDBm
	}
	if c.DefaultAC == 0 {
		c.DefaultAC = ACBestEffort
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
}

// PositionFunc yields an interface's current position on the local
// plane (vehicles move; RSUs are static).
type PositionFunc func() geo.Point

// queuedFrame is one frame awaiting channel access.
type queuedFrame struct {
	frame []byte
	ac    AccessCategory
	// enqueued is when the frame entered the queue.
	enqueued time.Duration
	// span covers queueing + EDCA contention (the access delay).
	span *tracing.Span
}

// Interface is one 802.11p radio attached to the medium, with an EDCA
// transmit path. It implements geonet.LinkLayer via SendBroadcast.
type Interface struct {
	id      int
	medium  *Medium
	kernel  *sim.Kernel
	cfg     InterfaceConfig
	pos     PositionFunc
	rng     *rand.Rand
	receive func(*Frame)

	// queue[head:] holds the frames awaiting channel access. Popping
	// advances head instead of reslicing from the front, so the backing
	// array (capped at QueueCap) is reused for the lifetime of the
	// interface rather than reallocated once per QueueCap frames.
	queue      []queuedFrame
	head       int
	accessBusy bool // an access attempt is in flight
	// fireFn and idleFn are fire and idle, bound once at Attach.
	fireFn, idleFn func()

	// busyAccum is the union of airtime this interface sensed the
	// channel busy (own frames and frames above the carrier-sense
	// level), maintained by the medium at frame completion. busyEnd is
	// the end of the latest busy interval merged so far.
	busyAccum time.Duration
	busyEnd   time.Duration

	// FramesQueued counts frames accepted into the transmit queue.
	FramesQueued uint64
	// FramesDroppedQueueFull counts tail drops.
	FramesDroppedQueueFull uint64
	// FramesTransmitted counts frames put on the air.
	FramesTransmitted uint64
	// FramesReceived counts frames successfully decoded.
	FramesReceived uint64
	// FramesCorrupted counts frames lost to SINR at this receiver.
	FramesCorrupted uint64
	// AccessDelayTotal accumulates queue+contention time for
	// transmitted frames (diagnostics).
	AccessDelayTotal time.Duration

	mQueued, mDropped, mTx, mRx, mCorrupt *metrics.Counter
	mAccessDelay                          [ACBackground + 1]*metrics.Histogram
	p                                     trace.Probe
}

// Attach adds a radio to the medium. pos must not be nil. The receive
// callback (set later via SetReceiver) is invoked for each frame
// decoded at this interface.
func (m *Medium) Attach(cfg InterfaceConfig, pos PositionFunc) (*Interface, error) {
	if pos == nil {
		return nil, fmt.Errorf("radio: attach %q: nil position func", cfg.Name)
	}
	cfg.applyDefaults()
	iface := &Interface{
		id:     len(m.ifaces),
		medium: m,
		kernel: m.kernel,
		cfg:    cfg,
		pos:    pos,
		rng:    m.kernel.Rand("radio.iface." + cfg.Name),
		p:      m.cfg.Sink.Probe(cfg.Name),
	}
	iface.fireFn, iface.idleFn = iface.fire, iface.idle
	p := iface.p
	iface.mQueued = p.Counter("radio_tx_queued_total")
	// drop_reason makes queue-full losses attributable in -metrics
	// output alongside the queue_full drop span in /trace.
	iface.mDropped = p.Counter("radio_tx_queue_drops_total", metrics.L("drop_reason", "queue_full"))
	iface.mTx = p.Counter("radio_tx_frames_total")
	iface.mRx = p.Counter("radio_rx_frames_total")
	iface.mCorrupt = p.Counter("radio_rx_corrupted_total")
	for ac := ACVoice; ac <= ACBackground; ac++ {
		iface.mAccessDelay[ac] = p.Histogram("radio_access_delay_seconds", metrics.L("ac", ac.String()))
	}
	m.ifaces = append(m.ifaces, iface)
	if cfg.TxPowerDBm > m.maxTxPowerDBm || len(m.ifaces) == 1 {
		m.maxTxPowerDBm = cfg.TxPowerDBm
	}
	// Invalidate the culling index, the fast-rejection cutoff and the
	// per-link radius cache: the next transmit re-derives them from
	// the (possibly raised) maximum tx power and the new interface
	// count, and bins every interface afresh.
	m.grid = nil
	m.cullCutoff2 = 0
	m.linkCache = nil
	return iface, nil
}

// AttachStation implements Backend: the station gets a best-effort
// interface at the default MCS and transmit power.
func (m *Medium) AttachStation(name string, pos PositionFunc) (Link, error) {
	return asLink(m.Attach(InterfaceConfig{Name: name, DefaultAC: ACBestEffort}, pos))
}

// ChannelBusyTime returns the accumulated time this interface sensed
// the channel busy since simulation start (the CBR numerator).
func (i *Interface) ChannelBusyTime() time.Duration { return i.busyAccum }

// SetReceiver installs the frame-delivery callback (the station). Every
// receiver of one broadcast gets the same *Frame: its bytes are
// read-only and its Decoded slot is parsed once, by the first receiver
// (see Frame).
func (i *Interface) SetReceiver(fn func(*Frame)) { i.receive = fn }

// Position returns the interface's current position.
func (i *Interface) Position() geo.Point { return i.pos() }

// SendBroadcast queues a frame at the default access category,
// satisfying geonet.LinkLayer.
func (i *Interface) SendBroadcast(frame []byte) error {
	return i.SendBroadcastAC(frame, i.cfg.DefaultAC)
}

// SendBroadcastPriority maps a GeoNetworking traffic-class identifier
// (0 = highest) to an EDCA access category, satisfying the router's
// optional PriorityLink extension: DENMs at TC 0 ride AC_VO, CAMs at
// TC 2 ride AC_BE, per EN 302 663.
func (i *Interface) SendBroadcastPriority(frame []byte, priority uint8) error {
	ac := ACBackground
	switch priority {
	case 0:
		ac = ACVoice
	case 1:
		ac = ACVideo
	case 2:
		ac = ACBestEffort
	}
	return i.SendBroadcastAC(frame, ac)
}

// SendBroadcastAC queues a frame at an explicit access category.
func (i *Interface) SendBroadcastAC(frame []byte, ac AccessCategory) error {
	now := i.kernel.Now()
	sp := i.p.Start("radio.access", "radio", now)
	sp.SetAttr("ac", ac.String())
	if i.queueLen() >= i.cfg.QueueCap {
		i.FramesDroppedQueueFull++
		i.mDropped.Inc()
		i.p.Record(now, flight.RadioDrop, flight.DropQueueFull, 0, 0)
		sp.Drop(now, "queue_full")
		return fmt.Errorf("radio: %s transmit queue full (%d frames)", i.cfg.Name, i.cfg.QueueCap)
	}
	f := make([]byte, len(frame))
	copy(f, frame)
	if i.head == len(i.queue) && i.head > 0 {
		// Fully drained: rewind so the backing array is reused.
		i.queue = i.queue[:0]
		i.head = 0
	}
	i.queue = append(i.queue, queuedFrame{frame: f, ac: ac, enqueued: now, span: sp})
	i.FramesQueued++
	i.mQueued.Inc()
	i.tryAccess()
	return nil
}

// queueLen reports how many frames await channel access.
func (i *Interface) queueLen() int { return len(i.queue) - i.head }

// tryAccess starts an EDCA access attempt for the head-of-line frame
// if none is in flight.
func (i *Interface) tryAccess() {
	if i.accessBusy || i.queueLen() == 0 {
		return
	}
	i.accessBusy = true
	head := i.queue[i.head]
	aifs := AIFS(head.ac)
	if !i.medium.busyAt(i) {
		// Channel idle: transmit after AIFS (assuming it stays idle —
		// the lab has two radios, so post-AIFS collisions are rare and
		// are approximated by the SINR overlap model).
		i.kernel.ScheduleFn(aifs, i.fireFn)
		return
	}
	// Busy: defer to end of busy period, then AIFS + random backoff.
	i.waitForIdle()
}

// waitForIdle defers the access attempt to the end of the busy period
// the interface senses, then backs off. The attempt is for the
// head-of-line frame, which stays queued until fire sends it.
func (i *Interface) waitForIdle() {
	until := i.medium.busyUntil(i)
	if until == 0 {
		i.backoff()
		return
	}
	i.kernel.ScheduleFn(until-i.kernel.Now(), i.idleFn)
}

// idle runs at the end of a busy period the access attempt deferred to.
func (i *Interface) idle() {
	// Re-check: another transmission may have started meanwhile.
	if i.medium.busyAt(i) {
		i.waitForIdle()
		return
	}
	i.backoff()
}

// backoff schedules the deferred attempt after AIFS plus a random
// number of slots drawn from the head-of-line frame's contention
// window.
func (i *Interface) backoff() {
	ac := i.queue[i.head].ac
	slots := time.Duration(i.rng.Intn(CWMin(ac) + 1))
	i.kernel.ScheduleFn(AIFS(ac)+slots*SlotTime, i.fireFn)
}

// fire transmits the head-of-line frame if the channel is (still)
// idle; otherwise the access attempt re-enters the defer path.
func (i *Interface) fire() {
	if i.queueLen() == 0 {
		i.accessBusy = false
		return
	}
	if i.medium.busyAt(i) {
		i.waitForIdle()
		return
	}
	head := i.queue[i.head]
	i.queue[i.head] = queuedFrame{} // release the frame and span
	i.head++
	if i.head == len(i.queue) {
		i.queue = i.queue[:0]
		i.head = 0
	}
	i.FramesTransmitted++
	i.mTx.Inc()
	delay := i.kernel.Now() - head.enqueued
	i.AccessDelayTotal += delay
	if head.ac >= ACVoice && head.ac <= ACBackground {
		i.mAccessDelay[head.ac].ObserveDuration(delay)
	}
	head.span.End(i.kernel.Now())
	i.medium.transmit(i, head.frame, head.ac, head.span)
	i.accessBusy = false
	if i.queueLen() > 0 {
		i.tryAccess()
	}
}
