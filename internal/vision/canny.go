package vision

import "math"

// CannyParams tune the edge detector.
type CannyParams struct {
	// LowThreshold and HighThreshold for hysteresis on the gradient
	// magnitude (0..~1442 for Sobel on 8-bit input).
	LowThreshold  float64
	HighThreshold float64
}

// DefaultCanny matches the OpenCV defaults the testbed's line follower
// uses.
func DefaultCanny() CannyParams {
	return CannyParams{LowThreshold: 50, HighThreshold: 150}
}

// cannyBuffers holds the intermediates of one Canny invocation so a
// per-frame caller (the Detector) reuses them across frames. The zero
// value is ready to use.
type cannyBuffers struct {
	blurred Gray
	tmp     []uint16
	mag     []float64
	dir     []uint8
	nms     Gray
	out     Gray
	// cand lists, in row-major order, the pixels that pass the Sobel
	// gate: the only ones NMS can keep.
	cand  []int32
	stack []int32
}

// ensureZeroed returns a zeroed n-element slice, reusing s's backing
// array when large enough.
func ensureZeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// gaussian5 applies a 5×5 binomial blur (kernel 1 4 6 4 1, σ≈1.1)
// into b.blurred, replicating the border pixels.
//
// The blur is computed on integers as (Σ k_i k_j p) >> 8. This equals
// the two-pass float form (each pass divided by 16, the result
// truncated to uint8) exactly: the horizontal sums are integers below
// 2^12, so every float intermediate is a dyadic rational held without
// rounding, and truncating a non-negative value is the floor the shift
// takes.
func gaussian5(src *Gray, b *cannyBuffers) *Gray {
	w, h := src.W, src.H
	b.tmp = ensureZeroed(b.tmp, w*h)
	tmp := b.tmp
	b.blurred.ensure(w, h)
	out := b.blurred.Pix
	// Horizontal pass: tmp holds 16× the float pass's value. Only the
	// two columns at each side clamp their taps.
	for y := 0; y < h; y++ {
		row := src.Pix[y*w : (y+1)*w]
		trow := tmp[y*w : (y+1)*w]
		if w < 5 {
			for x := range trow {
				trow[x] = clampedTaps(row, x)
			}
			continue
		}
		trow[0], trow[1] = clampedTaps(row, 0), clampedTaps(row, 1)
		for x := 2; x < w-2; x++ {
			r := row[x-2 : x+3 : x+3]
			trow[x] = uint16(r[0]) + 4*uint16(r[1]) + 6*uint16(r[2]) + 4*uint16(r[3]) + uint16(r[4])
		}
		trow[w-2], trow[w-1] = clampedTaps(row, w-2), clampedTaps(row, w-1)
	}
	// Vertical pass over whole rows; the sum reaches at most
	// 16 · 4080 = 65 280, which fits in 16 bits, though it is summed in
	// uint32 here.
	for y := 0; y < h; y++ {
		r0 := tmp[max(y-2, 0)*w:][:w]
		r1 := tmp[max(y-1, 0)*w:][:w]
		r2 := tmp[y*w:][:w]
		r3 := tmp[min(y+1, h-1)*w:][:w]
		r4 := tmp[min(y+2, h-1)*w:][:w]
		orow := out[y*w : (y+1)*w]
		for x := range orow {
			acc := uint32(r0[x]) + 4*uint32(r1[x]) + 6*uint32(r2[x]) + 4*uint32(r3[x]) + uint32(r4[x])
			orow[x] = uint8(acc >> 8)
		}
	}
	return &b.blurred
}

// clampedTaps is the horizontal blur of row at column x, each tap
// clamped into the row.
func clampedTaps(row []uint8, x int) uint16 {
	w := len(row)
	return uint16(row[max(x-2, 0)]) + 4*uint16(row[max(x-1, 0)]) + 6*uint16(row[x]) +
		4*uint16(row[min(x+1, w-1)]) + uint16(row[min(x+2, w-1)])
}

// cannyInto runs the full edge detector — Gaussian smoothing, Sobel
// gradients, non-maximum suppression and double-threshold hysteresis —
// with caller-owned scratch buffers. The result is a binary image (0
// or 255) that aliases b.out and stays valid until the next call with
// b.
func cannyInto(src *Gray, p CannyParams, b *cannyBuffers) *Gray {
	return edgesInto(gaussian5(src, b), p, b)
}

// edgesInto is the part of cannyInto after the blur.
//
// Sobel runs on integers. A pixel whose squared magnitude is provably
// below LowThreshold keeps magnitude 0 and direction 0 instead of its
// math.Hypot/math.Atan2 values: non-maximum suppression only examines
// centres at or above LowThreshold, a neighbour below it can never
// beat such a centre whether it holds its magnitude or 0, and
// hysteresis reads only the suppressed image. Every other pixel gets
// math.Hypot and math.Atan2 of the float gradient, because Hypot is
// inexact on some integer perfect-square pairs (Hypot(70, 240) is
// 250.00000000000003) and an exact integer root would flip NMS ties.
// The edge image is therefore bit-identical to the all-float detector.
func edgesInto(blurred *Gray, p CannyParams, b *cannyBuffers) *Gray {
	w, h := blurred.W, blurred.H
	b.mag = ensureZeroed(b.mag, w*h)
	mag := b.mag
	b.dir = ensureZeroed(b.dir, w*h)
	dir := b.dir // quantised gradient direction 0..3

	gate := sobelGate(p.LowThreshold)
	if b.cand == nil {
		// Room for a noisy frame of the guide line at the default
		// thresholds: about 900 candidates in a 160×120 frame.
		b.cand = make([]int32, 0, w*h/16)
	}
	cand := b.cand[:0]
	pix := blurred.Pix
	for y := 1; y < h-1 && w > 2; y++ {
		up := pix[(y-1)*w:][:w]
		mid := pix[y*w:][:w]
		down := pix[(y+1)*w:][:w]
		// Sobel separates: gx is the difference of the 1 2 1 column
		// sums at x+1 and x-1, gy the 1 2 1 weighted sum of the
		// down-minus-up differences at x-1, x and x+1. The window
		// carries both along the row, so each pixel loads one column.
		sum := func(x int) int32 { return int32(up[x]) + 2*int32(mid[x]) + int32(down[x]) }
		diff := func(x int) int32 { return int32(down[x]) - int32(up[x]) }
		s0, s1, d0, d1 := sum(0), sum(1), diff(0), diff(1)
		for x := 1; x < w-1; x++ {
			s2, d2 := sum(x+1), diff(x+1)
			gx, gy := s2-s0, d0+2*d1+d2
			s0, s1, d0, d1 = s1, s2, d1, d2
			if gx*gx+gy*gy < gate {
				continue
			}
			cand = append(cand, int32(y*w+x))
			fx, fy := float64(gx), float64(gy)
			mag[y*w+x] = math.Hypot(fx, fy)
			// Quantise the gradient angle to 4 directions.
			angle := math.Atan2(fy, fx)
			if angle < 0 {
				angle += math.Pi
			}
			switch {
			case angle < math.Pi/8 || angle >= 7*math.Pi/8:
				dir[y*w+x] = 0 // horizontal gradient → vertical edge
			case angle < 3*math.Pi/8:
				dir[y*w+x] = 1 // 45°
			case angle < 5*math.Pi/8:
				dir[y*w+x] = 2 // vertical gradient → horizontal edge
			default:
				dir[y*w+x] = 3 // 135°
			}
		}
	}

	b.cand = cand

	// Non-maximum suppression. A pixel off the candidate list has
	// magnitude 0 and is below LowThreshold whenever the gate excludes
	// anything, so visiting the list in order visits every pixel NMS
	// can keep, in the order a full scan would.
	const (
		weak   = 128
		strong = 255
	)
	b.nms.ensure(w, h)
	nms := b.nms.Pix
	b.out.ensure(w, h)
	out := b.out.Pix
	stack := b.stack[:0]
	for _, c := range cand {
		i := int(c)
		m := mag[i]
		if m < p.LowThreshold {
			continue
		}
		var m1, m2 float64
		switch dir[i] {
		case 0:
			m1, m2 = mag[i-1], mag[i+1]
		case 1:
			m1, m2 = mag[i-w+1], mag[i+w-1]
		case 2:
			m1, m2 = mag[i-w], mag[i+w]
		default:
			m1, m2 = mag[i-w-1], mag[i+w+1]
		}
		if m < m1 || m < m2 {
			continue
		}
		if m >= p.HighThreshold {
			nms[i] = strong
			out[i] = 255
			stack = append(stack, c)
		} else {
			nms[i] = weak
		}
	}

	// Hysteresis: weak pixels survive only when 8-connected to a
	// strong pixel (iterative flood from strong seeds). NMS marks only
	// interior pixels, so every neighbour index is in bounds.
	for len(stack) > 0 {
		i := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		for _, j := range [8]int{i - w - 1, i - w, i - w + 1, i - 1, i + 1, i + w - 1, i + w, i + w + 1} {
			if nms[j] == weak && out[j] == 0 {
				out[j] = 255
				stack = append(stack, int32(j))
			}
		}
	}
	b.stack = stack[:0]
	return &b.out
}

// sobelGate returns the integer bound below which a squared integer
// Sobel magnitude s is provably below low, so that such a pixel keeps
// magnitude 0. The 1e-9 margin dwarfs the rounding of Hypot and of the
// squared threshold, so s < g, with g = low²(1 − 1e-9), implies
// Hypot(gx, gy) < low; and for an integer s, s < g exactly when
// s < ⌈g⌉. A squared magnitude is at most 2·1020², so a bound past
// int32, an infinite one included, excludes every pixel.
func sobelGate(low float64) int32 {
	if !(low > 0) {
		return 0
	}
	g := math.Ceil(low * low * (1 - 1e-9))
	if !(g < math.MaxInt32) {
		return math.MaxInt32
	}
	return int32(g)
}

// regionFilterInPlace zeroes the pixels outside the central column
// band [left, right), expressed as fractions of the width — the
// paper's "region filter to only receive the center of the image".
func regionFilterInPlace(img *Gray, left, right float64) {
	lo := int(left * float64(img.W))
	hi := int(right * float64(img.W))
	for y := 0; y < img.H; y++ {
		row := img.Pix[y*img.W : (y+1)*img.W]
		for x := 0; x < lo && x < img.W; x++ {
			row[x] = 0
		}
		for x := hi; x < img.W; x++ {
			if x >= 0 {
				row[x] = 0
			}
		}
	}
}
