package sim

import "math/rand"

// math/rand's additive lagged-Fibonacci generator: a register of
// rngLen words, each draw adding the word rngTap places behind the
// feed position into it.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	// lcgMod and lcgMul define the seeding LCG x ← lcgMul·x mod lcgMod.
	lcgMod = 1<<31 - 1
	lcgMul = 48271
)

// lcgPow[j] is lcgMul^j mod lcgMod, for every LCG step seeding reads:
// word i of the register takes outputs 21+3i, 22+3i and 23+3i.
var lcgPow = func() (p [23 + 3*(rngLen-1) + 1]uint64) {
	p[0] = 1
	for j := 1; j < len(p); j++ {
		p[j] = p[j-1] * lcgMul % lcgMod
	}
	return p
}()

// Source is math/rand's rngSource without the up-front seeding pass.
// Seeding fills all 607 register words from a 31-bit LCG, but until
// its 274th draw the generator reads only words no draw has written
// yet, and most streams never draw that often: in a Table II attempt
// on ground-truth perception, only the OBU's OpenC2X stream does, in
// about 1% of attempts (a vision stream draws 19 200 values a frame).
// So each of the first 273 draws adds two seeded words taken straight
// from the LCG's closed form, and the register is built, with those
// draws' writes, only on the 274th. Every value, for every seed, is the
// one rand.NewSource(seed) would give.
//
// Kernel.Source hands out the Source behind a named stream, for a
// caller that draws in bulk through NormFill rather than one value at
// a time through rand.Rand's interface call.
type Source struct {
	tap, feed int
	// x0 is the LCG state seeding starts from.
	x0 uint64
	// vec is the register, nil until the 274th draw.
	vec *[rngLen]int64
}

// Seed resets the source to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.vec = nil
}

// word returns register word i as seeding leaves it.
func (s *Source) word(i int) int64 {
	p := lcgPow[21+3*i : 24+3*i : 24+3*i]
	u := int64(s.x0*p[0]%lcgMod) << 40
	u ^= int64(s.x0*p[1]%lcgMod) << 20
	u ^= int64(s.x0 * p[2] % lcgMod)
	return u ^ rngCooked[i]
}

// Int63 returns a non-negative pseudo-random 63-bit integer. It
// repeats Uint64 rather than calling it, so that a draw through
// rand.Rand's Float64, Intn or NormFloat64 costs one call, as it does
// with math/rand's source.
func (s *Source) Int63() int64 {
	if s.vec == nil {
		return int64(s.lazy() & rngMask)
	}
	return int64(s.next() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	if s.vec == nil {
		return s.lazy()
	}
	return s.next()
}

// next is a draw from the register: math/rand's rngSource.Uint64.
func (s *Source) next() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// lazy is a draw before the register exists. Draws 1–273 walk tap
// from 606 down to 334 and feed from 333 down to 61, so both words they
// read are still as seeding left them. Draw 274 reads word 333, the
// first one written, so it builds the register first.
func (s *Source) lazy() uint64 {
	if s.tap == rngLen-rngTap {
		s.build()
		return s.next()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	return uint64(s.word(s.feed) + s.word(s.tap))
}

// build allocates the register as it stands after draw 273: seeded,
// with draws 1–273 having added word i+273 into each word i from 333
// down to 61.
func (s *Source) build() {
	v := new([rngLen]int64)
	for i := range v {
		v[i] = s.word(i)
	}
	for i := rngLen - 2*rngTap; i < rngLen-rngTap; i++ {
		v[i] += v[i+rngTap]
	}
	s.vec = v
}

var _ rand.Source64 = (*Source)(nil)
