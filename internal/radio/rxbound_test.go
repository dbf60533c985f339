package radio

import (
	"math"
	"math/rand"
	"testing"

	"itsbed/internal/geo"
	"itsbed/internal/sim"
)

// TestLog2Exp2FloorBounds checks the chord bounds against math.Log2
// and math.Exp2 over every octave the medium uses, at knots, between
// them and one ulp either side of them.
func TestLog2Exp2FloorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checkLog := func(y float64) {
		l, want := log2Floor(y), math.Log2(y)
		// math.Log2 is within a few ulps; the bound's slack is far wider.
		if tol := 4e-16 * math.Max(1, math.Abs(want)); l > want+tol || l+log2Width < want-tol {
			t.Fatalf("log2Floor(%v) = %v: [%v, %v] misses log2 %v", y, l, l, l+log2Width, want)
		}
	}
	checkExp := func(x float64) {
		e, want := exp2Floor(x), math.Exp2(x)
		if tol := 4e-16 * want; e > want+tol || e*exp2Ratio < want-tol {
			t.Fatalf("exp2Floor(%v) = %v: [%v, %v] misses 2^x %v", x, e, e, e*exp2Ratio, want)
		}
	}
	for j := 0; j <= boundSegments; j++ {
		m := 1 + float64(j)/boundSegments
		for _, y := range []float64{m, math.Nextafter(m, 0), math.Nextafter(m, 3)} {
			for _, e := range []int{-1022, -300, -1, 0, 1, 50, 1000} {
				checkLog(math.Ldexp(y, e))
			}
		}
		f := float64(j) / boundSegments
		for _, x := range []float64{f, math.Nextafter(f, -1), math.Nextafter(f, 2)} {
			for _, k := range []float64{-999, -300, -1, 0, 1, 300, 998} {
				checkExp(x + k)
			}
		}
	}
	for _, x := range []float64{-1e-300, -1e-17, math.Copysign(0, -1), -0.5, 1000, -1000} {
		checkExp(x)
	}
	for i := 0; i < 200000; i++ {
		checkLog(math.Ldexp(1+rng.Float64(), rng.Intn(2000)-1000))
		checkExp((rng.Float64()*2 - 1) * 1000)
	}
}

// rxCase is one reception under test: the path-loss model and the
// transmitter's power choose the link, d2 places the receiver, and
// each interferer is a transmitter at its own power and position.
type rxCase struct {
	txDBm, sigmaDB, exponent float64
	d2                       float64
	extraNoiseDB             float64
	interferers              []rxInterferer
}

// rxInterferer is one overlapping transmission: own marks the
// receiver's own frame, which adds no interference.
type rxInterferer struct {
	txDBm float64
	pos   geo.Point
	own   bool
}

// rxSetup is a medium holding one rxCase, ready for boundSINR.
type rxSetup struct {
	m              *Medium
	tr             *transmission
	dst            *Interface
	srcPos, dstPos geo.Point
	// rxDBm and interfDBm are the exact receive powers, and noiseDBm
	// the noise floor exactP takes.
	rxDBm, noiseDBm float64
	interfDBm       []float64
	decodable       bool
}

// newRxSetup attaches the case's transmitter at the origin, its
// receiver at squared distance d2 on the x axis, and the interferers,
// and fills in the medium's per-completion state as complete does.
func newRxSetup(t *testing.T, c rxCase) *rxSetup {
	t.Helper()
	m := NewMedium(sim.NewKernel(1), MediumConfig{
		PathLoss: PathLossModel{Exponent: c.exponent, ReferenceLossDB: 47.9, ShadowingSigmaDB: c.sigmaDB},
	})
	s := &rxSetup{m: m, dstPos: geo.Point{X: math.Sqrt(c.d2)}}
	attach := func(name string, tx float64, p geo.Point) *Interface {
		iface, err := m.Attach(InterfaceConfig{Name: name, TxPowerDBm: tx}, func() geo.Point { return p })
		if err != nil {
			t.Fatal(err)
		}
		return iface
	}
	src := attach("tx", c.txDBm, s.srcPos)
	s.dst = attach("rx", DefaultTxPowerDBm, s.dstPos)
	s.tr = &transmission{src: src, powerDBm: src.cfg.TxPowerDBm}
	for i, in := range c.interferers {
		o := s.dst
		if !in.own {
			o = attach("if"+string(rune('a'+i)), in.txDBm, in.pos)
		}
		m.overlap = append(m.overlap, interferer{t: &transmission{src: o, powerDBm: o.cfg.TxPowerDBm}, pos: o.pos()})
	}
	s.noiseDBm = NoiseFloorDBm + c.extraNoiseDB
	m.noiseMW = dbmToMilliwatt(s.noiseDBm)
	m.noiseDBm = milliwattToDBm(m.noiseMW)
	d2 := sqDist(s.srcPos, s.dstPos)
	_, s.decodable = m.linkDecide(s.tr, s.dst, d2)
	s.rxDBm = m.rxPowerDBmAt(s.tr, s.srcPos, s.dst, s.dstPos)
	for _, o := range m.overlap {
		if o.t.src != s.dst {
			s.interfDBm = append(s.interfDBm, m.rxPowerDBmAt(o.t, o.pos, s.dst, s.dstPos))
		}
	}
	return s
}

// Outcomes of boundSINR, for coverage accounting.
const (
	rxNoise     = iota // a loss without interferers: the noise floor alone proved it
	rxLost             // a loss with interferers
	rxDelivered        // the enclosure's upper edge proved the delivery
	rxFallback         // the exact receive power decided
	rxOutcomes
)

// checkRxCase compares boundSINR, and the decision evaluate makes from
// it, with the exact decision for draw u, and names the outcome.
func checkRxCase(t *testing.T, s *rxSetup, u float64) int {
	t.Helper()
	want := exactSINRLost(u, s.rxDBm, s.tr.src.cfg.MCS.SNRThresholdDB, s.noiseDBm, s.interfDBm)
	d2 := sqDist(s.srcPos, s.dstPos)
	lost, ok := s.m.boundSINR(u, s.tr, s.dst, s.dstPos, d2)
	if !ok {
		lost = s.m.exactSINR(u, s.tr, s.dst, s.dstPos, s.rxDBm)
	}
	if lost != want {
		t.Fatalf("u=%v d2=%v rx=%v dBm interferers %v dBm: bounded lost=%v (decided %v), exact lost=%v (p=%v)",
			u, d2, s.rxDBm, s.interfDBm, lost, ok, want,
			exactP(s.rxDBm, s.tr.src.cfg.MCS.SNRThresholdDB, s.noiseDBm, s.interfDBm))
	}
	switch {
	case !ok:
		return rxFallback
	case !lost:
		return rxDelivered
	case len(s.interfDBm) == 0:
		return rxNoise
	}
	return rxLost
}

// rxPlanted returns draws around the exact p, where the bounds must
// fall back: p itself, within 1e-12 and 1e-8 either side, and an ulp
// either side.
func rxPlanted(p float64) []float64 {
	var us []float64
	for _, u := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, 1),
		p * (1 - 1e-12), p * (1 + 1e-12), p * (1 - 1e-8), p * (1 + 1e-8)} {
		if u >= 0 && u < 1 {
			us = append(us, u)
		}
	}
	return us
}

// TestRxBoundMatchesExact runs receptions at random links (the city's
// budget and others), distances from inside 1 m to past the
// sensitivity radius, zero to six interferers (the receiver's own
// frame among them) and draws both uniform and planted at the exact
// p. Every outcome of boundSINR must occur, and every decision must
// equal the exact one.
func TestRxBoundMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var hits [rxOutcomes]int
	for i := 0; i < 20000; i++ {
		c := rxCase{txDBm: 23, sigmaDB: 2, exponent: 2.75}
		if rng.Intn(2) == 0 {
			c = rxCase{txDBm: rng.Float64()*60 - 20, sigmaDB: rng.Float64() * 6, exponent: 1.6 + rng.Float64()*3}
		}
		if rng.Intn(4) == 0 {
			c.extraNoiseDB = rng.Float64() * 30
		}
		c.d2 = math.Exp(rng.Float64()*24 - 2) // 0.14 m² to 6e9 m²
		for j := rng.Intn(7); j > 0; j-- {
			c.interferers = append(c.interferers, rxInterferer{
				txDBm: 23,
				pos:   geo.Point{X: (rng.Float64() - 0.5) * 3000, Y: (rng.Float64() - 0.5) * 3000},
				own:   rng.Intn(8) == 0,
			})
		}
		s := newRxSetup(t, c)
		if !s.decodable {
			continue
		}
		us := []float64{rng.Float64()}
		if rng.Intn(4) == 0 {
			us = rxPlanted(exactP(s.rxDBm, s.tr.src.cfg.MCS.SNRThresholdDB, s.noiseDBm, s.interfDBm))
		}
		for _, u := range us {
			hits[checkRxCase(t, s, u)]++
		}
	}
	t.Logf("outcomes (noise loss, loss, delivery, fallback): %v", hits)
	for outcome, n := range hits {
		if n == 0 {
			t.Errorf("boundSINR outcome %d never occurred: %v", outcome, hits)
		}
	}
}

// rxAnchors are the squared distances FuzzRxBoundMatchesExact plants d2
// around: the raw value, the link's exact sensitivity and carrier-sense
// radii, the cached float32 sensitivity radius and the edges of its
// rounding band, and the 1 m clamp.
var rxAnchors = []func(sens2, cs2 float64) float64{
	func(_, _ float64) float64 { return 1 },
	func(sens2, _ float64) float64 { return sens2 },
	func(_, cs2 float64) float64 { return cs2 },
	func(sens2, _ float64) float64 { return float64(float32(sens2)) },
	func(sens2, _ float64) float64 { return float64(float32(sens2)) * (1 - linkBand) },
	func(sens2, _ float64) float64 { return float64(float32(sens2)) * (1 + linkBand) },
	func(_, _ float64) float64 { return 0.5 },
}

// fuzzRxInterferers decodes up to 8 interferers, three bytes each: tx
// power (−40 dBm to +23.75 dBm in quarter dB; 255 marks the receiver's
// own frame), and a distance from the receiver of 2^(b/16)·(1+c/256)
// metres (1 m to 128 km), or c/256 m for b = 0, along one of 16
// bearings taken from c.
func fuzzRxInterferers(dst geo.Point, b []byte) []rxInterferer {
	var out []rxInterferer
	for len(b) >= 3 && len(out) < 8 {
		in := rxInterferer{txDBm: -40 + float64(b[0])/4, own: b[0] == 255}
		dist := math.Exp2(float64(b[1])/16) * (1 + float64(b[2])/256)
		if b[1] == 0 {
			dist = float64(b[2]) / 256
		}
		bearing := float64(b[2]%16) * math.Pi / 8
		in.pos = geo.Point{X: dst.X + dist*math.Cos(bearing), Y: dst.Y + dist*math.Sin(bearing)}
		out = append(out, in)
		b = b[3:]
	}
	return out
}

// FuzzRxBoundMatchesExact lets the fuzzer choose the link (tx power,
// shadowing sigma, path-loss exponent), the receiver's squared distance
// (an anchor from rxAnchors times 1+rel, rel scaled into ±2⁻¹⁹ for
// every anchor but the raw one), a noise burst, the interferers, and
// u: raw, or planted at the exact p scaled by 1+urel·1e-5 and moved by
// ulps. The decision evaluate takes from boundSINR, with the exact
// fallback, must equal the exact decision.
func FuzzRxBoundMatchesExact(f *testing.F) {
	edge := float64(linkBand) / 0x1p-19
	city := []byte{100, 0x70, 0x20, 160, 0x90, 0x40, 200, 0xa0, 0x80}
	for anchor := uint8(0); anchor < uint8(len(rxAnchors)); anchor++ {
		for _, rel := range []float64{0, edge, -edge, 0.5, -0.5} {
			for _, plant := range []bool{false, true} {
				f.Add(23.0, 2.0, 2.75, anchor, rel, 0.0, plant, 0.5, int8(0), city)
				f.Add(23.0, 2.0, 2.75, anchor, rel, 10.0, plant, -0.3, int8(1), []byte{})
			}
		}
	}
	// The receiver's own frame among the interferers, interferers
	// within 1 m, and one too weak to reach sensitivity at 1 m.
	f.Add(20.0, 4.0, 2.2, uint8(1), -0.5, 0.0, true, 0.0, int8(-1), []byte{255, 0x40, 0, 160, 0, 0x80, 0, 0x10, 0})
	// The 1 m clamp at a tx power that puts the sensitivity radius at 1.
	f.Add(-44.1, 0.0, 2.0, uint8(0), -0.75, 0.0, true, 0.0, int8(0), []byte{})
	f.Add(-44.09, 0.0, 2.0, uint8(6), 0.0, 0.0, false, 0.3, int8(0), city)
	// Draws near 1 and near 0.
	for _, u := range []float64{math.Nextafter(1, 0), enclosedMaxU, math.Nextafter(enclosedMaxU, 1), 0, 0x1p-63} {
		f.Add(23.0, 2.0, 2.75, uint8(3), 0.0, 0.0, false, u, int8(0), city)
	}
	f.Fuzz(func(t *testing.T, tx, sigma, exponent float64, anchor uint8, rel, extra float64, plant bool,
		u float64, ulps int8, interferers []byte) {
		if math.IsNaN(tx) || math.Abs(tx) > 200 || !(sigma >= 0 && sigma <= 20) || !(exponent > 0 && exponent <= 10) ||
			math.IsNaN(rel) || math.IsInf(rel, 0) || !(extra >= 0 && extra <= 100) || math.IsNaN(u) || math.IsInf(u, 0) {
			t.Skip()
		}
		c := rxCase{txDBm: tx, sigmaDB: sigma, exponent: exponent, extraNoiseDB: extra}
		// The link's exact radii, from a medium holding the link alone.
		probe := newRxSetup(t, rxCase{txDBm: tx, sigmaDB: sigma, exponent: exponent, d2: 1})
		sens2, cs2 := probe.m.exactRadii(probe.tr, probe.dst)
		anchor %= uint8(len(rxAnchors))
		if anchor != 0 {
			rel = math.Mod(rel, 1) * 0x1p-19
		}
		c.d2 = rxAnchors[anchor](sens2, cs2) * (1 + rel)
		if !(c.d2 >= 0 && c.d2 < 1e300) {
			t.Skip()
		}
		c.interferers = fuzzRxInterferers(geo.Point{X: math.Sqrt(c.d2)}, interferers)
		s := newRxSetup(t, c)
		if !s.decodable {
			t.Skip()
		}
		if plant {
			u = exactP(s.rxDBm, s.tr.src.cfg.MCS.SNRThresholdDB, s.noiseDBm, s.interfDBm) * (1 + math.Mod(u, 1)*1e-5)
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
		checkRxCase(t, s, u)
	})
}
