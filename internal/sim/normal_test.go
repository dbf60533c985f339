package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// countingSource counts the draws a rand.Rand takes from its source.
type countingSource struct {
	rand.Source64
	draws int
}

func (c *countingSource) Int63() int64   { c.draws++; return c.Source64.Int63() }
func (c *countingSource) Uint64() uint64 { c.draws++; return c.Source64.Uint64() }

// normFillCheck replays plan on a Source and on rand.NewSource(seed).
// Each byte b of the plan asks for one Intn(1+b) draw, through a
// rand.Rand over the Source, when b%4 == 0, and otherwise for a
// NormFill of 3b values, compared with as many NormFloat64 calls. A
// closing fill of 700 values takes every plan past the register's
// build at draw 274 and its first wrap at 607. It returns the first
// mismatch, and how many reference calls went on from the rectangle
// test to the base strip's tail or to a wedge.
func normFillCheck(seed int64, plan []byte) (tails, wedges int, err error) {
	src := newSource(seed)
	got := rand.New(src)
	ref := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
	want := rand.New(ref)
	buf := make([]float64, 3*255)
	fill := func(step, n int) error {
		dst := buf[:n]
		src.NormFill(dst)
		for k, g := range dst {
			before := ref.draws
			w := want.NormFloat64()
			if math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("step %d, value %d of %d: NormFill %v, NormFloat64 %v", step, k, n, g, w)
			}
			if ref.draws > before+1 {
				// The tail alone reaches past the ziggurat's base, rn.
				if math.Abs(w) >= rn {
					tails++
				} else {
					wedges++
				}
			}
		}
		return nil
	}
	for step, b := range plan {
		if b%4 == 0 {
			n := 1 + int(b)
			if g, w := got.Intn(n), want.Intn(n); g != w {
				return tails, wedges, fmt.Errorf("step %d: Intn(%d) %d, want %d", step, n, g, w)
			}
			continue
		}
		if err := fill(step, 3*int(b)); err != nil {
			return tails, wedges, err
		}
	}
	return tails, wedges, fill(len(plan), 700)
}

// normFillPlans are the seed corpus's plans: a lone closing fill, fills
// of one value across the lazy draws, Intn draws between fills of
// every length class, and long runs of long fills.
var normFillPlans = [][]byte{
	{},
	{1, 1, 1, 0, 1, 4, 1, 91, 1, 1},
	{0, 8, 255, 3, 4, 90, 7, 12, 200, 1, 2, 252, 5, 6},
	{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255},
	{254, 0, 253, 4, 251, 8, 250, 16, 249, 32, 247, 64, 246, 128, 245, 252, 243, 255, 242, 241, 239, 238, 237, 235, 234},
}

// TestNormFillHitsTailAndWedge runs the fuzz target's seed corpus and
// requires it to reach both slow paths of the ziggurat, which the
// inline rectangle test hands to normSlow.
func TestNormFillHitsTailAndWedge(t *testing.T) {
	tails, wedges := 0, 0
	for _, seed := range sourceSeeds {
		for _, plan := range normFillPlans {
			tl, wd, err := normFillCheck(seed, plan)
			if err != nil {
				t.Fatalf("seed %d, plan %v: %v", seed, plan, err)
			}
			tails, wedges = tails+tl, wedges+wd
		}
	}
	t.Logf("%d tail and %d wedge values", tails, wedges)
	if tails == 0 || wedges == 0 {
		t.Fatalf("%d tail and %d wedge values; want both > 0", tails, wedges)
	}
}

// FuzzNormFillMatchesRand checks NormFill, interleaved with Intn draws
// through rand.Rand over the same source, against math/rand for
// arbitrary seeds and plans.
func FuzzNormFillMatchesRand(f *testing.F) {
	for i, seed := range sourceSeeds {
		f.Add(seed, normFillPlans[i%len(normFillPlans)])
	}
	f.Fuzz(func(t *testing.T, seed int64, plan []byte) {
		if len(plan) > 64 {
			plan = plan[:64]
		}
		if _, _, err := normFillCheck(seed, plan); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}
