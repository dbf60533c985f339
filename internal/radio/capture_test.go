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

// Stages of the bounded decision, for coverage accounting.
const (
	stageNoise = iota // lost against the noise floor alone
	stageEarly        // a partial interference sum proved the loss
	stageExact        // decided on the full sum
	stages
)

// boundedSINRLost runs the capture decision the way evaluate does:
// noise-only bound, then the early-exit sum, then the exact compare.
func boundedSINRLost(u, rxDBm, thresholdDB, noiseDBm float64, interfDBm []float64) (lost bool, stage int) {
	noiseMW := dbmToMilliwatt(noiseDBm)
	var c capture
	if c.start(u, rxDBm, thresholdDB, noiseMW, milliwattToDBm(noiseMW)) {
		return true, stageNoise
	}
	if len(interfDBm) > 0 {
		c.bound()
		for _, dbm := range interfDBm {
			if c.add(dbmToMilliwatt(dbm)) {
				return true, stageEarly
			}
		}
	}
	return c.lost(), stageExact
}

// sinrCase is one receiver's SINR inputs.
type sinrCase struct {
	u, rxDBm, thresholdDB, noiseDBm float64
	interfDBm                       []float64
}

func checkSINRCase(t *testing.T, c sinrCase) int {
	t.Helper()
	want := exactSINRLost(c.u, c.rxDBm, c.thresholdDB, c.noiseDBm, c.interfDBm)
	got, stage := boundedSINRLost(c.u, c.rxDBm, c.thresholdDB, c.noiseDBm, c.interfDBm)
	if got != want {
		t.Fatalf("%+v: bounded decision lost=%v (stage %d), exact lost=%v (p=%v)",
			c, got, stage, want, exactP(c.rxDBm, c.thresholdDB, c.noiseDBm, c.interfDBm))
	}
	return stage
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

// TestSINRDecisionMatchesExact drives the bounded decision and the
// per-term reference over random receivers: rx power, noise floor with
// and without an injected burst, zero to eight interferers, and u both
// drawn uniformly and planted within 1e-12 of the exact p. Receivers
// whose p sits near 0 or 1 are drawn on purpose. Every stage of the
// bounded decision must run, and every outcome must match.
func TestSINRDecisionMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	thresholds := []float64{MCS3Mbps.SNRThresholdDB, MCS6Mbps.SNRThresholdDB, MCS27Mbps.SNRThresholdDB}
	var hits [stages]int
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
			hits[checkSINRCase(t, c)]++
			continue
		}
		for _, u := range plantedUs(exactP(c.rxDBm, c.thresholdDB, c.noiseDBm, c.interfDBm)) {
			c.u = u
			hits[checkSINRCase(t, c)]++
		}
	}
	for stage, n := range hits {
		if n == 0 {
			t.Errorf("stage %d never decided a case: %v", stage, hits)
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
		c := sinrCase{rxDBm: rx, thresholdDB: MCS6Mbps.SNRThresholdDB, noiseDBm: NoiseFloorDBm + extra}
		for len(powers) >= 2 && len(c.interfDBm) < 16 {
			// −160 dBm to +2 dBm in steps of 1/400 dB.
			c.interfDBm = append(c.interfDBm, -160+float64(uint16(powers[0])<<8|uint16(powers[1]))/400)
			powers = powers[2:]
		}
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
