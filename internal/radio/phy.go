// Package radio models the IEEE 802.11p (ITS-G5) access layer the
// testbed's OBU and RSU use: OFDM airtime at 10 MHz channelisation,
// EDCA channel access in OCB mode (no association, broadcast frames,
// no acknowledgements), log-distance path loss with shadowing, and
// SINR-based frame capture. It also provides the C-V2X mode-4
// sidelink (PC5Medium) and the cellular Uu path (CellularLink) used by
// the paper's future-work comparison over a 5G interface. All three
// implement Backend, the one seam through which a station gets its
// Link.
//
// The model runs on the discrete-event kernel: transmissions occupy
// the medium for their computed airtime, receivers within carrier-
// sense range defer, and frames are delivered or lost per the SINR at
// each receiver.
package radio

import (
	"fmt"
	"math"
	"time"
)

// MCS describes one 802.11p modulation and coding scheme at 10 MHz.
type MCS struct {
	Name string
	// BitsPerSymbol is the number of data bits per OFDM symbol (NDBPS).
	BitsPerSymbol int
	// SNRThresholdDB is the approximate SINR needed for ~90% frame
	// success at typical safety-message lengths.
	SNRThresholdDB float64
}

// 802.11p data rates at 10 MHz channel spacing. The default rate for
// ITS-G5 safety messages is 6 Mb/s (QPSK 1/2).
var (
	MCS3Mbps  = MCS{Name: "BPSK-1/2 3Mb/s", BitsPerSymbol: 24, SNRThresholdDB: 5}
	MCS45Mbps = MCS{Name: "BPSK-3/4 4.5Mb/s", BitsPerSymbol: 36, SNRThresholdDB: 6}
	MCS6Mbps  = MCS{Name: "QPSK-1/2 6Mb/s", BitsPerSymbol: 48, SNRThresholdDB: 8}
	MCS9Mbps  = MCS{Name: "QPSK-3/4 9Mb/s", BitsPerSymbol: 72, SNRThresholdDB: 11}
	MCS12Mbps = MCS{Name: "16QAM-1/2 12Mb/s", BitsPerSymbol: 96, SNRThresholdDB: 15}
	MCS18Mbps = MCS{Name: "16QAM-3/4 18Mb/s", BitsPerSymbol: 144, SNRThresholdDB: 20}
	MCS24Mbps = MCS{Name: "64QAM-2/3 24Mb/s", BitsPerSymbol: 192, SNRThresholdDB: 25}
	MCS27Mbps = MCS{Name: "64QAM-3/4 27Mb/s", BitsPerSymbol: 216, SNRThresholdDB: 26}
)

// OFDM timing constants for 802.11p (10 MHz ⇒ parameters of 802.11a
// scaled by 2).
const (
	// SymbolDuration of one OFDM symbol.
	SymbolDuration = 8 * time.Microsecond
	// PreambleDuration covers the PLCP preamble and SIGNAL field.
	PreambleDuration = 40 * time.Microsecond
	// SlotTime for EDCA at 10 MHz.
	SlotTime = 13 * time.Microsecond
	// SIFS at 10 MHz.
	SIFS = 32 * time.Microsecond
	// MACOverheadBytes is the 802.11 MAC header + FCS for a QoS data
	// frame plus the LLC/SNAP encapsulation of GeoNetworking.
	MACOverheadBytes = 36
)

// Airtime computes the duration of a frame of payloadBytes (the
// GeoNetworking packet) at the given MCS, including preamble, MAC
// overhead, service and tail bits.
func Airtime(payloadBytes int, mcs MCS) time.Duration {
	bits := 16 + 6 + 8*(payloadBytes+MACOverheadBytes) // SERVICE + tail + data
	symbols := (bits + mcs.BitsPerSymbol - 1) / mcs.BitsPerSymbol
	return PreambleDuration + time.Duration(symbols)*SymbolDuration
}

// PathLossModel computes the received power for a transmission.
type PathLossModel struct {
	// Exponent of the log-distance law. ~2.0 free space, 2.7–3.5
	// indoor/urban.
	Exponent float64
	// ReferenceLossDB at 1 m for 5.9 GHz (Friis: ~47.9 dB).
	ReferenceLossDB float64
	// ShadowingSigmaDB is the standard deviation of log-normal
	// shadowing; 0 disables it.
	ShadowingSigmaDB float64
}

// DefaultIndoorPathLoss matches a laboratory hall at 5.9 GHz.
func DefaultIndoorPathLoss() PathLossModel {
	return PathLossModel{Exponent: 2.2, ReferenceLossDB: 47.9, ShadowingSigmaDB: 2.0}
}

// LossDB returns the deterministic part of the path loss at distance d
// metres (shadowing is sampled by the medium per link).
func (m PathLossModel) LossDB(d float64) float64 {
	if d < 1 {
		d = 1
	}
	return m.ReferenceLossDB + 10*m.Exponent*math.Log10(d)
}

// Physical-layer constants for the link budget.
const (
	// DefaultTxPowerDBm for ITS-G5 road safety (23 dBm EIRP class C).
	DefaultTxPowerDBm = 23.0
	// NoiseFloorDBm for a 10 MHz channel with a 10 dB noise figure.
	NoiseFloorDBm = -94.0
	// DefaultSensitivityDBm below which frames are undetectable.
	DefaultSensitivityDBm = -92.0
	// DefaultCarrierSenseDBm above which the medium is sensed busy.
	DefaultCarrierSenseDBm = -85.0
)

// dbmToMilliwatt converts dBm to mW.
func dbmToMilliwatt(dbm float64) float64 { return math.Pow(10, dbm/10) }

// milliwattToDBm converts mW to dBm.
func milliwattToDBm(mw float64) float64 {
	if mw <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(mw)
}

// successProbability maps an SINR margin (dB above the MCS threshold)
// to a frame success probability with a smooth waterfall curve ~3 dB
// wide, approximating measured 802.11p PER curves.
func successProbability(sinrDB, thresholdDB float64) float64 {
	margin := sinrDB - thresholdDB
	return 1 / (1 + math.Exp(-2.2*margin))
}

// captureMargin is the slack capture's shortcuts leave for rounding.
// successProbability, evaluated in float64 on an interference sum,
// is within a relative 1e-12 of its real-valued result (the log10,
// exp and divisions each add a few ulps), so a shortcut that keeps a
// 1e-9 margin can never decide a loss the exact comparison would not.
const captureMargin = 1e-9

// Bounds of the inputs on which enclose is proven.
const (
	// enclosurePad is the relative half-width of the band, around the
	// interference at which p equals u, inside which only the exact sum
	// decides. The enclosure's own rounding takes at most 2.2e-12 of it
	// (see enclose); the rest keeps the rounding of p from deciding.
	enclosurePad = 1e-10
	// enclosedDBm bounds |dBm| of the receive power, the noise floor,
	// the MCS threshold and every interferer, so every power in mW is a
	// normal float64 and every exponent is small enough for the bounds
	// in enclose.
	enclosedDBm = 1000
	// enclosedTerms bounds the interferers of one enclosed sum: a float
	// sum of at most 4097 non-negative terms is within 4096·2⁻⁵³ < 5e-13
	// relative of its real sum.
	enclosedTerms = 4096
	// enclosedMinU and enclosedMaxU bound the draws the enclosure
	// decides. Below the minimum (it is under every non-zero draw of
	// rand.Float64, a multiple of 2⁻⁶³) (1−u)/u may overflow, and p may
	// round to 0; above the maximum the rounding of p itself (2⁻⁵²
	// relative) is no longer small next to the pad's effect on p, which
	// shrinks with 1−u.
	enclosedMinU = 0x1p-64
	enclosedMaxU = 1 - 0x1p-16
)

// ln10over10 converts dB to a natural exponent: 10^(x/10) = e^(x·ln10/10).
const ln10over10 = math.Ln10 / 10

// decideSINR decides one receiver's SINR outcome: the frame is lost
// when u > p, with p the successProbability of rxDBm over the
// interference sum, the noise floor first and then each of the n
// interferers term(i) returns (in dBm; ok false skips the entry),
// converted to mW and summed in index order.
//
// It opens capture, which loses the frame against the noise floor
// alone when it can. Otherwise a receiver with interferers is decided
// from an enclosure of the sum (see enclose). Only when the enclosure
// cannot decide (a straddle, or inputs outside its proven range) does
// capture go on verbatim: bound, every exact term, lost; straddled
// reports that. Either way the outcome equals the exact decision, and u
// is the only draw.
func decideSINR(u, rxDBm, thresholdDB, noiseMW, noiseDBm float64, n int, term func(i int) (dbm float64, ok bool)) (lost, straddled bool) {
	var c capture
	if c.start(u, rxDBm, thresholdDB, noiseMW, noiseDBm) {
		return true, false
	}
	if n == 0 {
		return c.lost(), false
	}
	if lost, ok := enclose(u, rxDBm, thresholdDB, noiseMW, noiseDBm, n, term); ok {
		return lost, false
	}
	c.bound()
	for i := 0; i < n; i++ {
		if dbm, ok := term(i); ok {
			if c.add(dbmToMilliwatt(dbm)) {
				return true, true
			}
		}
	}
	return c.lost(), true
}

// enclose decides the SINR outcome from an enclosure of the exact
// interference sum S, the float sum of dbmToMilliwatt terms that
// capture adds; ok is false when it cannot.
//
// It sums A, the same terms each taken as math.Exp(dBm·ln10/10), in
// the same order, and compares A with L, the interference at which p
// would equal u (interferenceAt), padded by enclosurePad either way.
// The errors, for inputs within the enclosed bounds:
//   - Each Exp term is within 2e-13 relative of the math.Pow term: both
//     are within 1e-13 of 10^(dBm/10). Exp's argument, at most 231 in
//     magnitude, is rounded twice; Pow rounds dBm/10 and builds 10^⌊y⌉
//     in at most seven squarings of an exact fraction; math.Exp and
//     math.Log are within a few ulps.
//   - With the summation error (enclosedTerms), every partial sum of A
//     is within 1.2e-12 relative of the same partial sum of S.
//   - L, an Exp of an argument below 470 built from dB values below
//     2100 (|ln((1−u)/u)| < 45 for enclosed draws), is within 1e-12
//     relative of its real value.
//
// So a partial A above L·(1+pad) proves S ≥ L·(1+ρ) and a full A below
// L·(1−pad) proves S ≤ L·(1−ρ), with ρ > 9.7e-11.
//
// Lemma (rxBound relies on it too): for a draw within [enclosedMinU,
// enclosedMaxU], at most enclosedTerms interferers, and rx, threshold,
// noise floor and every interferer within ±enclosedDBm, let L be the
// real interference at which the real success probability of rx equals
// u. Then S ≥ L·(1+ρ) means the exact comparison loses the frame, and
// S ≤ L·(1−ρ) means it delivers, for ρ ≥ 9.7e-11. Proof: the logit of
// the real p falls by 2.2·10/ln10 ≈ 9.55 per unit of ln S, so those
// move it by more than 9.2e-10 below or above logit(u). The computed p
// is within (1−p)·1e-11 + 3.3e-16 relative of the real one: an error of
// at most 3e-12 dB in rx − 10·log10 S − threshold scales exp's result
// by e^(2.2·3e-12), and the final 1+E and division round twice. That
// error is smaller than the logit shift whenever 1−p exceeds 4e-7,
// which enclosedMaxU ensures on the side where p is near u.
//
// Hence a loss above the upper edge and a delivery below the lower edge
// both equal the exact comparison; everything between is a straddle.
func enclose(u, rxDBm, thresholdDB, noiseMW, noiseDBm float64, n int, term func(i int) (dbm float64, ok bool)) (lost, ok bool) {
	if n > enclosedTerms || !(u >= enclosedMinU && u <= enclosedMaxU) || !(math.Abs(rxDBm) <= enclosedDBm) ||
		!(math.Abs(thresholdDB) <= enclosedDBm) || !(math.Abs(noiseDBm) <= enclosedDBm) {
		return false, false
	}
	at := interferenceAt(u, rxDBm, thresholdDB)
	lossAt := at * (1 + enclosurePad)
	sum := noiseMW
	for i := 0; i < n; i++ {
		dbm, ok := term(i)
		if !ok {
			continue
		}
		if !(math.Abs(dbm) <= enclosedDBm) {
			return false, false
		}
		if sum += math.Exp(dbm * ln10over10); sum > lossAt {
			return true, true
		}
	}
	return false, sum < at*(1-enclosurePad)
}

// interferenceAt is the interference in mW at which the success
// probability of rxDBm equals u: it solves
// u = 1/(1+exp(−2.2(rx − 10·log10 S − threshold))) for S, with
// math.Exp in place of capture.bound's math.Pow.
func interferenceAt(u, rxDBm, thresholdDB float64) float64 {
	return math.Exp((rxDBm - thresholdDB + math.Log((1-u)/u)/2.2) * ln10over10)
}

// Bounded log2 and exp2. Over each octave the two functions are cut
// into boundSegments chords between knots taken from math.Log2 and
// math.Exp2 (each within 1e-15 of its real value). log2 is concave, so
// its chord lies below it, by at most h²/(8·m²·ln2) ≤ log2Gap on a chord
// of width h = 1/boundSegments at mantissa m ≥ 1; 2^x is convex, so its
// chord lies above it, by at most h²·ln²2·2^(x+h)/8, a share of at most
// exp2Gap of 2^x. The medium turns both into bounds that decide SINR
// outcomes without math.Log10, math.Exp or math.Pow (see rxBound).
const (
	boundSegments = 256
	log2Gap       = 1 / (8 * boundSegments * boundSegments * math.Ln2)
	exp2Gap       = math.Ln2 * math.Ln2 * 1.003 / (8 * boundSegments * boundSegments) // 2^(1/256) < 1.003
	// log2Slack absorbs log2Floor's rounding: the knots and the chord
	// (under 4e-15) and the exponent added last (under 2⁻⁵³·1024).
	log2Slack = 1e-12
	// log2Width bounds the width of log2Floor's enclosure.
	log2Width = log2Gap + 2*log2Slack
	// exp2Slack absorbs exp2Floor's relative rounding: the knots and the
	// chord (under 2e-15), the fraction x − ⌊x⌋ (exact but for x in
	// (−1, 0), where it is within 2⁻⁵³) and the scaling (2⁻⁵³).
	exp2Slack = 1e-14
	// exp2Shrink scales a chord down to a lower bound of 2^x, and
	// exp2Ratio bounds 2^x over exp2Floor's result.
	exp2Shrink = 1 - exp2Gap - exp2Slack
	exp2Ratio  = (1 + exp2Slack) / exp2Shrink
)

// log2Knots[j] is log2(1 + j/boundSegments); exp2Knots[j] is
// 2^(j/boundSegments), with a repeated last knot that exp2Floor reads
// when x − ⌊x⌋ rounds up to 1.
var log2Knots [boundSegments + 1]float64
var exp2Knots [boundSegments + 2]float64

func init() {
	for j := 0; j <= boundSegments; j++ {
		log2Knots[j] = math.Log2(1 + float64(j)/boundSegments)
		exp2Knots[j] = math.Exp2(float64(j) / boundSegments)
	}
	exp2Knots[boundSegments+1] = exp2Knots[boundSegments]
}

// log2Floor returns l with l ≤ log2(y) ≤ l + log2Width, for a positive
// normal y: the exponent bits of y plus the chord under log2 of its
// mantissa, read from the top 8 mantissa bits and the 44 below them.
func log2Floor(y float64) float64 {
	b := math.Float64bits(y)
	frac := b & (1<<52 - 1)
	j := frac >> 44
	g := float64(frac&(1<<44-1)) * 0x1p-44
	l0 := log2Knots[j]
	return float64(int(b>>52)-1023) + (l0 + g*(log2Knots[j+1]-l0) - log2Slack)
}

// exp2Floor returns e with e ≤ 2^x ≤ e·exp2Ratio, for |x| ≤ 1000: the
// chord over 2^(x − ⌊x⌋), scaled down by exp2Shrink, times 2^⌊x⌋ built
// from its exponent bits.
func exp2Floor(x float64) float64 {
	k := math.Floor(x)
	s := (x - k) * boundSegments
	j := int(s)
	g := s - float64(j)
	e0 := exp2Knots[j]
	return (e0 + g*(exp2Knots[j+1]-e0)) * exp2Shrink * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// capture is the exact SINR decision that decideSINR falls back to.
// The exact rule is: the frame is lost when u > p, with p the
// successProbability of rx over the interference sum (noise floor
// first, then each overlapping transmission's power in mW, summed in
// that order). p only falls as the sum grows, and a float sum of
// non-negative terms never shrinks, so a partial sum proves a loss
// once it passes the power at which p would equal u. Deliveries and
// losses near the boundary always go through the exact comparison on
// the full sum.
type capture struct {
	u, rxDBm, thresholdDB float64
	// pNoise is the success probability against the noise floor alone.
	pNoise float64
	// sumMW is the interference summed so far, noise floor included;
	// terms counts the interferers in it.
	sumMW float64
	terms int
	// limitMW is the interference above which the frame is provably
	// lost, derived from u with captureMargin (+Inf when u leaves no
	// such bound). Set by bound.
	limitMW float64
}

// start opens the decision with the noise floor as the interference
// so far, and reports whether the noise floor alone already loses the
// frame: the full sum is at least noiseMW, so p ≤ p(noise).
func (c *capture) start(u, rxDBm, thresholdDB, noiseMW, noiseDBm float64) (lost bool) {
	*c = capture{u: u, rxDBm: rxDBm, thresholdDB: thresholdDB, sumMW: noiseMW,
		pNoise: successProbability(rxDBm-noiseDBm, thresholdDB)}
	return u > c.pNoise+captureMargin
}

// bound derives limitMW, the interference at which the success
// probability equals u·(1−captureMargin): solving
// u' = 1/(1+exp(−2.2(rx − 10·log10 S − threshold))) for S.
// u = 0 never loses and gives +Inf.
func (c *capture) bound() {
	u := c.u * (1 - captureMargin)
	c.limitMW = dbmToMilliwatt(c.rxDBm - c.thresholdDB + math.Log((1-u)/u)/2.2)
}

// add folds one interferer's power into the sum and reports whether
// the partial sum already proves a loss. bound must have run.
func (c *capture) add(mw float64) (lost bool) {
	c.sumMW += mw
	c.terms++
	return c.sumMW > c.limitMW
}

// lost is the exact decision on the full interference sum. Without
// interferers the sum is the noise floor, whose success probability
// start already computed from the same noiseDBm = 10·log10(noiseMW).
func (c *capture) lost() bool {
	if c.terms == 0 {
		return c.u > c.pNoise
	}
	return c.u > successProbability(c.rxDBm-milliwattToDBm(c.sumMW), c.thresholdDB)
}

// AccessCategory is an EDCA access category.
type AccessCategory int

// EDCA access categories, highest priority first.
const (
	ACVoice AccessCategory = iota + 1
	ACVideo
	ACBestEffort
	ACBackground
)

// String implements fmt.Stringer.
func (ac AccessCategory) String() string {
	switch ac {
	case ACVoice:
		return "AC_VO"
	case ACVideo:
		return "AC_VI"
	case ACBestEffort:
		return "AC_BE"
	case ACBackground:
		return "AC_BK"
	default:
		return fmt.Sprintf("AC(%d)", int(ac))
	}
}

type edcaParams struct {
	aifsn int
	cwMin int
}

// EDCA parameter set for ITS-G5 (EN 302 663), indexed by access
// category: DENMs go out on AC_VO, CAMs on AC_BE.
var edcaTable = [...]edcaParams{
	ACVoice:      {aifsn: 2, cwMin: 3},
	ACVideo:      {aifsn: 3, cwMin: 7},
	ACBestEffort: {aifsn: 6, cwMin: 15},
	ACBackground: {aifsn: 9, cwMin: 15},
}

// edca returns ac's parameters; an unknown category gets AC_BE's.
func edca(ac AccessCategory) edcaParams {
	if ac < ACVoice || int(ac) >= len(edcaTable) {
		ac = ACBestEffort
	}
	return edcaTable[ac]
}

// AIFS returns the arbitration inter-frame space for an access
// category.
func AIFS(ac AccessCategory) time.Duration {
	return SIFS + time.Duration(edca(ac).aifsn)*SlotTime
}

// CWMin returns the minimum contention window for an access category.
func CWMin(ac AccessCategory) int { return edca(ac).cwMin }
