package radio

import (
	"math"
	"math/rand"
	"testing"
)

// exactP is the medium's SINR arithmetic before it decided from
// bounds, kept as the reference: sum the noise floor and every
// interferer in mW, convert the sum to dBm once, and map the SINR to a
// success probability. noiseDBm is the noise floor with any injected
// burst already added, as evaluate formed it.
func exactP(rxDBm, thresholdDB, noiseDBm float64, interfDBm []float64) float64 {
	interfMW := dbmToMilliwatt(noiseDBm)
	for _, dbm := range interfDBm {
		interfMW += dbmToMilliwatt(dbm)
	}
	sinrDB := rxDBm - milliwattToDBm(interfMW)
	return successProbability(sinrDB, thresholdDB)
}

// exactSINRLost is the reference decision: the frame is lost when the
// receiver's uniform draw u exceeds the exact success probability.
func exactSINRLost(u, rxDBm, thresholdDB, noiseDBm float64, interfDBm []float64) bool {
	return u > exactP(rxDBm, thresholdDB, noiseDBm, interfDBm)
}

// decidedSINRLost runs decideSINR the way evaluate does, with the
// interferers in order.
func decidedSINRLost(u, rxDBm, thresholdDB, noiseDBm float64, interfDBm []float64) bool {
	noiseMW := dbmToMilliwatt(noiseDBm)
	lost, _ := decideSINR(u, rxDBm, thresholdDB, noiseMW, milliwattToDBm(noiseMW), len(interfDBm),
		func(i int) (float64, bool) { return interfDBm[i], true })
	return lost
}

// Stages of the capture steps, for coverage accounting.
const (
	captureNoise = iota // lost against the noise floor alone
	captureEarly        // a partial interference sum proved the loss
	captureExact        // decided on the full sum
	captureStages
)

// captureLost runs the capture steps decideSINR runs and names the
// stage that decided: the noise-only bound, then the early-exit sum,
// then the exact compare.
func captureLost(u, rxDBm, thresholdDB, noiseDBm float64, interfDBm []float64) (lost bool, stage int) {
	noiseMW := dbmToMilliwatt(noiseDBm)
	var c capture
	if c.start(u, rxDBm, thresholdDB, noiseMW, milliwattToDBm(noiseMW)) {
		return true, captureNoise
	}
	if len(interfDBm) > 0 {
		c.bound()
		for _, dbm := range interfDBm {
			if c.add(dbmToMilliwatt(dbm)) {
				return true, captureEarly
			}
		}
	}
	return c.lost(), captureExact
}

// sinrCase is one receiver's SINR inputs.
type sinrCase struct {
	u, rxDBm, thresholdDB, noiseDBm float64
	interfDBm                       []float64
}

// checkSINRCase compares decideSINR and the capture steps with the
// exact decision, and returns the capture stage that decided.
func checkSINRCase(t *testing.T, c sinrCase) (captureStage int) {
	t.Helper()
	want := exactSINRLost(c.u, c.rxDBm, c.thresholdDB, c.noiseDBm, c.interfDBm)
	if got := decidedSINRLost(c.u, c.rxDBm, c.thresholdDB, c.noiseDBm, c.interfDBm); got != want {
		t.Fatalf("%+v: decideSINR lost=%v, exact lost=%v (p=%v)",
			c, got, want, exactP(c.rxDBm, c.thresholdDB, c.noiseDBm, c.interfDBm))
	}
	got, captureStage := captureLost(c.u, c.rxDBm, c.thresholdDB, c.noiseDBm, c.interfDBm)
	if got != want {
		t.Fatalf("%+v: capture lost=%v (stage %d), exact lost=%v (p=%v)",
			c, got, captureStage, want, exactP(c.rxDBm, c.thresholdDB, c.noiseDBm, c.interfDBm))
	}
	return captureStage
}

// plantedUs returns draws at and around p, so the exact fallback
// decides: p itself, one ulp either side, within 1e-12, and 0.
func plantedUs(p float64) []float64 {
	us := []float64{0, p, math.Nextafter(p, 0), math.Nextafter(p, 1), p - 1e-12, p + 1e-12, p - 1e-10, p + 1e-10}
	out := us[:0]
	for _, u := range us {
		if u >= 0 && u < 1 {
			out = append(out, u)
		}
	}
	return out
}

// TestSINRDecisionMatchesExact drives decideSINR, the capture steps
// and the per-term reference over random receivers: rx power, noise
// floor with and without an injected burst, zero to eight interferers,
// and u both drawn uniformly and planted within 1e-12 of the exact p.
// Receivers whose p sits near 0 or 1 are drawn on purpose. Every
// capture stage must run, and every outcome must match.
func TestSINRDecisionMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	thresholds := []float64{MCS3Mbps.SNRThresholdDB, MCS6Mbps.SNRThresholdDB, MCS27Mbps.SNRThresholdDB}
	var captureHits [captureStages]int
	check := func(c sinrCase) { captureHits[checkSINRCase(t, c)]++ }
	for i := 0; i < 200000; i++ {
		c := sinrCase{
			thresholdDB: thresholds[rng.Intn(len(thresholds))],
			noiseDBm:    NoiseFloorDBm,
		}
		if rng.Intn(3) == 0 {
			c.noiseDBm += rng.Float64() * 30 // an injected noise burst
		}
		switch rng.Intn(4) {
		case 0: // p near 1: far above the noise floor and the threshold
			c.rxDBm = c.noiseDBm + c.thresholdDB + 15 + rng.Float64()*60
		case 1: // p near 0: far below the threshold
			c.rxDBm = c.noiseDBm + c.thresholdDB - 15 - rng.Float64()*60
		default: // around the waterfall
			c.rxDBm = c.noiseDBm + c.thresholdDB + (rng.Float64()-0.5)*20
		}
		c.interfDBm = make([]float64, rng.Intn(9))
		for j := range c.interfDBm {
			c.interfDBm[j] = c.rxDBm - 30 + rng.Float64()*45
		}
		if rng.Intn(2) == 0 {
			c.u = rng.Float64()
			check(c)
			continue
		}
		for _, u := range plantedUs(exactP(c.rxDBm, c.thresholdDB, c.noiseDBm, c.interfDBm)) {
			c.u = u
			check(c)
		}
	}
	for stage, n := range captureHits {
		if n == 0 {
			t.Errorf("capture stage %d never decided a case: %v", stage, captureHits)
		}
	}
}

// TestSINRDecisionEdgeDraws pins the draws the uniform stream can
// produce at its ends: u = 0 never loses, and u just below 1 loses
// unless p rounds to 1.
func TestSINRDecisionEdgeDraws(t *testing.T) {
	for _, rx := range []float64{-400, -92, -80, -60, 200} {
		for _, interf := range [][]float64{nil, {-70}, {-50, -60, -90}} {
			for _, u := range []float64{0, math.SmallestNonzeroFloat64, 1e-300, 0x1p-53, 0.5, math.Nextafter(1, 0)} {
				checkSINRCase(t, sinrCase{u: u, rxDBm: rx, thresholdDB: 8, noiseDBm: NoiseFloorDBm, interfDBm: interf})
			}
		}
	}
}

// FuzzSINRDecisionMatchesExact lets the fuzzer choose the receiver:
// rx power, noise burst, u (any value in [0, 1), or planted near the
// exact p when plant is set) and up to 16 interferers, two bytes each.
func FuzzSINRDecisionMatchesExact(f *testing.F) {
	f.Add(-80.0, 0.0, 0.5, false, []byte{0x10, 0x00, 0x80, 0x00})
	f.Add(-60.0, 10.0, 0.999, true, []byte{0xff, 0xff})
	f.Add(-91.0, 3.0, 0.0, false, []byte{})
	f.Add(-75.0, 0.0, -0.5, true, []byte{0x40, 0x10, 0x40, 0x10, 0x40, 0x10})
	f.Fuzz(func(t *testing.T, rx, extra, u float64, plant bool, powers []byte) {
		if math.IsNaN(rx) || math.Abs(rx) > 500 || math.IsNaN(extra) || extra < 0 || extra > 100 {
			t.Skip()
		}
		c := sinrCase{rxDBm: rx, thresholdDB: MCS6Mbps.SNRThresholdDB, noiseDBm: NoiseFloorDBm + extra,
			interfDBm: fuzzInterferers(powers)}
		if plant {
			// u as an offset of at most 1e-9 around the exact p.
			if math.IsNaN(u) || math.IsInf(u, 0) {
				t.Skip()
			}
			u = exactP(c.rxDBm, c.thresholdDB, c.noiseDBm, c.interfDBm) + math.Mod(u, 1)*1e-9
		}
		if !(u >= 0 && u < 1) {
			t.Skip()
		}
		c.u = u
		checkSINRCase(t, c)
	})
}

// fuzzInterferers decodes up to 16 interferer powers, two bytes each:
// −160 dBm to +2 dBm in steps of 1/400 dB.
func fuzzInterferers(powers []byte) []float64 {
	var dbm []float64
	for len(powers) >= 2 && len(dbm) < 16 {
		dbm = append(dbm, -160+float64(uint16(powers[0])<<8|uint16(powers[1]))/400)
		powers = powers[2:]
	}
	return dbm
}

// sinrEnclosure is the relative half-width of the interference band
// whose edges FuzzSINREnclosureMatchesExact plants draws at: ten times
// narrower than captureMargin, so only the exact compare on the full
// sum may decide draws there.
const sinrEnclosure = 1e-10

// sinrEdges returns the success probabilities at the edges of the
// enclosure S/(1±sinrEnclosure) of the exact interference sum S: hi
// above the exact p, lo below it.
func sinrEdges(c sinrCase) (hi, lo float64) {
	a := dbmToMilliwatt(c.noiseDBm)
	for _, dbm := range c.interfDBm {
		a += dbmToMilliwatt(dbm)
	}
	p := func(s float64) float64 { return successProbability(c.rxDBm-milliwattToDBm(s), c.thresholdDB) }
	return p(a / (1 + sinrEnclosure)), p(a / (1 - sinrEnclosure))
}

// sinrAnchors are the draws FuzzSINREnclosureMatchesExact plants u
// around: the exact p and the enclosure's two edges.
var sinrAnchors = []func(c sinrCase) float64{
	func(c sinrCase) float64 { return exactP(c.rxDBm, c.thresholdDB, c.noiseDBm, c.interfDBm) },
	func(c sinrCase) float64 { hi, _ := sinrEdges(c); return hi },
	func(c sinrCase) float64 { _, lo := sinrEdges(c); return lo },
}

// FuzzSINREnclosureMatchesExact lets the fuzzer choose the receiver (rx
// power, noise burst, up to 16 interferers) and u: raw (anchor 0, u =
// rel) or planted at an anchor (the exact p, or p at either edge of a
// 1e-10 enclosure of the interference sum) scaled by 1+rel·1e-8 with
// rel folded into (−1, 1), then moved by ulps steps of one ulp.
// decideSINR and the capture steps must both equal the exact decision.
func FuzzSINREnclosureMatchesExact(f *testing.F) {
	pad := sinrEnclosure / 1e-8 // rel for a relative offset of one enclosure half-width
	interferers := [][]byte{
		{},
		{0x6e, 0x00},
		{0x6e, 0x00, 0x80, 0x00},
		{0x40, 0x10, 0x50, 0x10, 0x60, 0x10},
		{0x6a, 0x00, 0x6b, 0x00, 0x6c, 0x00, 0x6d, 0x00},
		{0x70, 0x00, 0x20, 0x00, 0x71, 0x00, 0x21, 0x00, 0x72, 0x00},
		{0x68, 0x00, 0x68, 0x00, 0x68, 0x00, 0x68, 0x00, 0x68, 0x00, 0x68, 0x00},
		{0x90, 0x00, 0x30, 0x00, 0x66, 0x80, 0x66, 0x80, 0x66, 0x80, 0x66, 0x80, 0x10, 0x00},
		{0x69, 0x00, 0x69, 0x10, 0x69, 0x20, 0x69, 0x30, 0x69, 0x40, 0x69, 0x50, 0x69, 0x60, 0x69, 0x70},
	}
	for k, powers := range interferers {
		rx := -85.0 + float64(k)
		for anchor := uint8(1); anchor <= 3; anchor++ {
			for _, off := range []struct {
				rel  float64
				ulps int8
			}{{0, 0}, {0, 1}, {0, -1}, {pad, 0}, {-pad, 0}} {
				f.Add(rx, 0.0, anchor, off.rel, off.ulps, powers)
			}
		}
		// Draws near 1, where u·(1+captureMargin) ≥ 1 or u passes
		// enclosedMaxU, and draws near 0.
		for _, u := range []float64{math.Nextafter(1, 0), 1 - 5e-10, enclosedMaxU, math.Nextafter(enclosedMaxU, 1), 0, 0x1p-63} {
			f.Add(rx, 3.0, uint8(0), u, int8(0), powers)
		}
	}
	f.Fuzz(func(t *testing.T, rx, extra float64, anchor uint8, rel float64, ulps int8, powers []byte) {
		if math.IsNaN(rx) || math.Abs(rx) > 500 || !(extra >= 0 && extra <= 100) || math.IsNaN(rel) || math.IsInf(rel, 0) {
			t.Skip()
		}
		c := sinrCase{rxDBm: rx, thresholdDB: MCS6Mbps.SNRThresholdDB, noiseDBm: NoiseFloorDBm + extra,
			interfDBm: fuzzInterferers(powers)}
		u := rel
		if anchor %= uint8(len(sinrAnchors) + 1); anchor != 0 {
			u = sinrAnchors[anchor-1](c) * (1 + math.Mod(rel, 1)*1e-8)
		}
		for ; ulps > 0; ulps-- {
			u = math.Nextafter(u, 2)
		}
		for ; ulps < 0; ulps++ {
			u = math.Nextafter(u, -1)
		}
		if !(u >= 0 && u < 1) {
			t.Skip()
		}
		c.u = u
		checkSINRCase(t, c)
	})
}
