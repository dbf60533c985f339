package sim

import (
	"math"
	"math/rand"
	"testing"
)

// newSource returns a source equivalent to rand.NewSource(seed).
func newSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// sourceSeeds are the seeds whose normalisation takes a branch of its
// own: zero (replaced by 89482311), negatives, math.MinInt64, and
// multiples and neighbours of the LCG modulus 2³¹−1.
var sourceSeeds = []int64{
	0, 1, -1, 2, 42, -42, 89482311, -89482311,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64,
	lcgMod - 1, lcgMod, lcgMod + 1, -lcgMod, -lcgMod - 1, -lcgMod + 1,
	2 * lcgMod, 2*lcgMod + 1, 3*lcgMod - 1, lcgMod * lcgMod, -lcgMod * 5,
	lcgMod + 89482311, 1 << 31, 1 << 40, -1 << 62,
}

// TestSourceMatchesStdlib checks every value of the first eight
// register periods: the lazy draws 1–273, the fill at 274, the feed
// wrap at 334, the tap wrap at 607 and the plain register afterwards.
func TestSourceMatchesStdlib(t *testing.T) {
	for _, seed := range sourceSeeds {
		want := rand.NewSource(seed).(rand.Source64)
		got := newSource(seed)
		for i := 1; i <= 8*rngLen; i++ {
			var w, g uint64
			if i%3 == 0 {
				w, g = uint64(want.Int63()), uint64(got.Int63())
			} else {
				w, g = want.Uint64(), got.Uint64()
			}
			if w != g {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, i, g, w)
			}
		}
	}
}

// TestSourceReseedMatchesStdlib re-seeds both sources through
// rand.Rand.Seed after draw counts on either side of every boundary.
func TestSourceReseedMatchesStdlib(t *testing.T) {
	counts := []int{0, 1, 272, 273, 274, 275, 333, 334, 335, 606, 607, 608, 1214, 1821}
	for _, n := range counts {
		want := rand.New(rand.NewSource(7))
		got := rand.New(newSource(7))
		for i := 0; i < n; i++ {
			want.Uint64()
			got.Uint64()
		}
		for _, seed := range sourceSeeds[:8] {
			want.Seed(seed)
			got.Seed(seed)
			for i := 1; i <= 2*rngLen; i++ {
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("after %d draws, reseed %d draw %d: got %#x, want %#x", n, seed, i, g, w)
				}
			}
		}
	}
}

// TestRandMixMatchesStdlib drives rand.Rand over both sources through
// the methods the simulation uses, which consume one, two or a
// data-dependent number of source values per call.
func TestRandMixMatchesStdlib(t *testing.T) {
	for _, seed := range sourceSeeds {
		for _, calls := range []int{50, 273, 274, 334, 607, 3 * 607} {
			if i, ok := firstMixMismatch(seed, calls); !ok {
				t.Fatalf("seed %d, %d calls: first mismatch at call %d", seed, calls, i)
			}
		}
	}
}

// FuzzRandSourceMatchesStdlib checks arbitrary seeds and call counts.
func FuzzRandSourceMatchesStdlib(f *testing.F) {
	for _, seed := range sourceSeeds {
		f.Add(seed, uint16(700))
	}
	f.Fuzz(func(t *testing.T, seed int64, calls uint16) {
		if i, ok := firstMixMismatch(seed, int(calls%4096)); !ok {
			t.Fatalf("seed %d: first mismatch at call %d", seed, i)
		}
	})
}

// firstMixMismatch makes calls method calls on a rand.Rand over
// rand.NewSource(seed) and one over newSource(seed), cycling through
// Int63, Uint64, Float64, NormFloat64, Intn, Perm and Shuffle. It
// returns the first call whose results differ.
func firstMixMismatch(seed int64, calls int) (int, bool) {
	want := rand.New(rand.NewSource(seed))
	got := rand.New(newSource(seed))
	draw := func(r *rand.Rand, i int) []uint64 {
		switch i % 7 {
		case 0:
			return []uint64{uint64(r.Int63())}
		case 1:
			return []uint64{r.Uint64()}
		case 2:
			return []uint64{math.Float64bits(r.Float64())}
		case 3:
			return []uint64{math.Float64bits(r.NormFloat64())}
		case 4:
			return []uint64{uint64(r.Intn(1 + i%1000))}
		case 5:
			var out []uint64
			for _, v := range r.Perm(1 + i%13) {
				out = append(out, uint64(v))
			}
			return out
		default:
			s := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8}
			r.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
			return s
		}
	}
	for i := 0; i < calls; i++ {
		w, g := draw(want, i), draw(got, i)
		if len(w) != len(g) {
			return i, false
		}
		for j := range w {
			if w[j] != g[j] {
				return i, false
			}
		}
	}
	return calls, true
}

var sinkSource rand.Source

// TestSourceAllocatesRegisterOnDraw274 pins where a stream allocates:
// one small object when created and the 607-word register on its
// 274th draw, nothing else.
func TestSourceAllocatesRegisterOnDraw274(t *testing.T) {
	for _, draws := range []int{0, 1, 273, 274, 607, 3 * rngLen} {
		n := testing.AllocsPerRun(5, func() {
			src := newSource(1)
			for i := 0; i < draws; i++ {
				src.Uint64()
			}
			sinkSource = src
		})
		want := 1.0
		if draws > rngTap {
			want = 2
		}
		if n != want {
			t.Errorf("a stream drawn %d times allocates %v objects, want %v", draws, n, want)
		}
	}
}
