package sim

import "math"

// rn is the start of the ziggurat's tail, as math/rand's normal.go has
// it.
const rn = 3.442619855899

// NormFill fills dst with standard normal values. It yields exactly
// the values, and takes exactly the source draws, of len(dst) calls to
// rand.New(s).NormFloat64: the same ziggurat, with the register's tap
// and feed kept in locals across the loop and the rectangle test
// inline. About 2.8% of values leave the rectangle; normSlow finishes
// those, and every value before the register exists.
func (s *Source) NormFill(dst []float64) {
	for len(dst) > 0 && s.vec == nil {
		dst[0] = s.normSlow(int32(s.lazy() >> 31))
		dst = dst[1:]
	}
	if len(dst) == 0 {
		return
	}
	vec, tap, feed := s.vec, s.tap, s.feed
	for k := range dst {
		tap--
		if tap < 0 {
			tap += rngLen
		}
		feed--
		if feed < 0 {
			feed += rngLen
		}
		x := vec[feed] + vec[tap]
		vec[feed] = x
		// rand.Rand.Uint32 is bits 31–62 of the draw.
		j := int32(uint64(x) >> 31)
		i := j & 0x7F
		if absInt32(j) < kn[i] {
			dst[k] = float64(j) * float64(wn[i])
			continue
		}
		s.tap, s.feed = tap, feed
		dst[k] = s.normSlow(j)
		tap, feed = s.tap, s.feed
	}
	s.tap, s.feed = tap, feed
}

// normSlow is rand.Rand.NormFloat64 given its first 32-bit draw j:
// the rectangle test, then the base strip's tail or a wedge, drawing
// again whenever the wedge rejects.
func (s *Source) normSlow(j int32) float64 {
	for {
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			return x
		}
		if i == 0 {
			for {
				x = -math.Log(s.float64()) * (1.0 / rn)
				y := -math.Log(s.float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(s.float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		j = int32(s.Int63() >> 31)
	}
}

// float64 is rand.Rand.Float64.
func (s *Source) float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}
