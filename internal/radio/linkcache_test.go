package radio

import (
	"math"
	"testing"
	"unsafe"

	"itsbed/internal/geo"
	"itsbed/internal/sim"
)

// TestLinkThresholdIs8Bytes pins the link cache's entry size: the
// cache is n×n entries, 8 MB for a 1000-vehicle city.
func TestLinkThresholdIs8Bytes(t *testing.T) {
	if got := unsafe.Sizeof(linkThreshold{}); got != 8 {
		t.Fatalf("linkThreshold is %d bytes, want 8", got)
	}
}

// linkCase is one directed link under test: the medium's path loss
// and the transmitter's power choose the link's exact radii.
type linkCase struct {
	txDBm, sigmaDB, exponent float64
}

// checkLinkDecision compares the cached decisions for squared distance
// d2 with the exact float64 comparisons against exactRadii.
func checkLinkDecision(t *testing.T, c linkCase, anchor func(sens2, cs2 float64) float64, rel float64) {
	t.Helper()
	m := NewMedium(sim.NewKernel(1), MediumConfig{
		PathLoss: PathLossModel{Exponent: c.exponent, ReferenceLossDB: 47.9, ShadowingSigmaDB: c.sigmaDB},
	})
	src, err := m.Attach(InterfaceConfig{Name: "tx", TxPowerDBm: c.txDBm}, func() geo.Point { return geo.Point{} })
	if err != nil {
		t.Fatal(err)
	}
	dst, err := m.Attach(InterfaceConfig{Name: "rx"}, func() geo.Point { return geo.Point{} })
	if err != nil {
		t.Fatal(err)
	}
	tr := &transmission{src: src, powerDBm: src.cfg.TxPowerDBm}
	sens2, cs2 := m.exactRadii(tr, dst)
	d2 := anchor(sens2, cs2) * (1 + rel)
	if math.IsNaN(d2) || math.IsInf(d2, 0) || d2 < 0 {
		t.Skip()
	}
	// Decide twice: the first call derives the cache entry, the second
	// reads it back.
	for i := 0; i < 2; i++ {
		sensed, decodable := m.linkDecide(tr, dst, d2)
		if sensed != (d2 <= cs2) || decodable != (d2 <= sens2) {
			t.Fatalf("%+v d2=%v (sens2=%v cs2=%v): sensed %v decodable %v, exact %v %v",
				c, d2, sens2, cs2, sensed, decodable, d2 <= cs2, d2 <= sens2)
		}
	}
}

// linkAnchors are the squared distances the fuzzer plants d2 around:
// the raw value, each exact radius, and each radius rounded to float32
// (the centre of its rounding band).
var linkAnchors = []func(sens2, cs2 float64) float64{
	func(_, _ float64) float64 { return 1 },
	func(sens2, _ float64) float64 { return sens2 },
	func(_, cs2 float64) float64 { return cs2 },
	func(sens2, _ float64) float64 { return float64(float32(sens2)) },
	func(_, cs2 float64) float64 { return float64(float32(cs2)) },
}

// FuzzLinkDecisionMatchesExact lets the fuzzer choose the link (tx
// power, shadowing sigma, path-loss exponent) and d2: an anchor (raw,
// an exact radius, or a radius rounded to float32) times 1+rel, with
// rel taken as is for the raw anchor and scaled into ±2⁻¹⁹ otherwise.
// The cached decision must equal the exact float64 comparison.
func FuzzLinkDecisionMatchesExact(f *testing.F) {
	edge := float64(linkBand)
	for _, rel := range []float64{0, edge, -edge, 2 * edge, -2 * edge, 0x1p-24, -0x1p-24, 0x1p-53, -0x1p-53} {
		for anchor := uint8(1); anchor < 5; anchor++ {
			f.Add(23.0, 2.0, 2.75, anchor, rel/0x1p-19) // the city's link budget
		}
	}
	// A radius of −1: below sensitivity and carrier sense even at 1 m.
	f.Add(-60.0, 0.0, 2.0, uint8(0), -1.0)
	f.Add(-60.0, 0.0, 2.0, uint8(0), -0.75)
	// The 1 m clamp: a margin of zero puts the sensitivity radius at 1.
	f.Add(-44.1, 0.0, 2.0, uint8(0), -0.75)
	f.Add(-44.1, 0.0, 2.0, uint8(0), 0.0)
	f.Add(-44.1, 0.0, 2.0, uint8(1), 0.0)
	f.Add(-44.1, 0.0, 2.0, uint8(3), edge/0x1p-19)
	// Radii beyond float32's range: finite in float64, then +Inf.
	f.Add(23.0, 0.0, 0.1, uint8(2), 0.0)
	f.Add(23.0, 0.0, 0.1, uint8(2), -0.5)
	f.Add(23.0, 0.0, 0.01, uint8(0), 1e300)
	f.Fuzz(func(t *testing.T, tx, sigma, exponent float64, anchor uint8, rel float64) {
		if math.IsNaN(tx) || math.Abs(tx) > 200 || !(sigma >= 0 && sigma <= 20) ||
			!(exponent > 0 && exponent <= 10) || math.IsNaN(rel) || math.IsInf(rel, 0) {
			t.Skip()
		}
		anchor %= uint8(len(linkAnchors))
		if anchor != 0 {
			rel = math.Mod(rel, 1) * 0x1p-19
		}
		checkLinkDecision(t, linkCase{txDBm: tx, sigmaDB: sigma, exponent: exponent}, linkAnchors[anchor], rel)
	})
}
