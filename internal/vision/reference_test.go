package vision

import (
	"math"
	"math/rand"
	"sort"

	"itsbed/internal/geo"
	"itsbed/internal/track"
)

// The all-float Fig. 6 pipeline the fast path replaced, kept as the
// test oracle: float blur, Sobel with math.Hypot and math.Atan2 on
// every pixel, Project-based rendering and the []int-accumulator
// Hough transform, each allocating fresh buffers. The fast pipeline
// must match it bit for bit.

// refRender renders a frame by projecting every pixel centre onto the
// line.
func refRender(c CameraModel, line *track.Line, pos geo.Point, heading, lineWidthM float64, rng *rand.Rand) *Gray {
	img := NewGray(c.Width, c.Height)
	const floor, ink = 200, 30
	cosH, sinH := math.Cos(heading), math.Sin(heading)
	for v := 0; v < c.Height; v++ {
		fwd := c.NearOffset + c.PatchLength*float64(c.Height-1-v)/float64(c.Height-1)
		for u := 0; u < c.Width; u++ {
			lat := c.PatchWidth * (float64(u)/float64(c.Width-1) - 0.5)
			wx := pos.X + fwd*sinH + lat*cosH
			wy := pos.Y + fwd*cosH - lat*sinH
			_, off := line.Project(geo.Point{X: wx, Y: wy})
			val := uint8(floor)
			if math.Abs(off) <= lineWidthM/2 {
				val = ink
			}
			if c.NoiseSigma > 0 && rng != nil {
				n := rng.NormFloat64() * c.NoiseSigma
				f := float64(val) + n
				if f < 0 {
					f = 0
				}
				if f > 255 {
					f = 255
				}
				val = uint8(f)
			}
			img.Set(u, v, val)
		}
	}
	return img
}

// withinRender renders a frame with one line.Within test per pixel
// centre, as RenderInto did before it classified rows by span.
func withinRender(c CameraModel, line *track.Line, pos geo.Point, heading, lineWidthM float64, rng *rand.Rand) *Gray {
	img := NewGray(c.Width, c.Height)
	const floor, ink = 200, 30
	cosH, sinH := math.Cos(heading), math.Sin(heading)
	for v := 0; v < c.Height; v++ {
		fwd := c.NearOffset + c.PatchLength*float64(c.Height-1-v)/float64(c.Height-1)
		for u := 0; u < c.Width; u++ {
			lat := c.PatchWidth * (float64(u)/float64(c.Width-1) - 0.5)
			wx := pos.X + fwd*sinH + lat*cosH
			wy := pos.Y + fwd*cosH - lat*sinH
			val := uint8(floor)
			if line.Within(geo.Point{X: wx, Y: wy}, lineWidthM/2) {
				val = ink
			}
			if c.NoiseSigma > 0 && rng != nil {
				n := rng.NormFloat64() * c.NoiseSigma
				f := float64(val) + n
				if f < 0 {
					f = 0
				}
				if f > 255 {
					f = 255
				}
				val = uint8(f)
			}
			img.Set(u, v, val)
		}
	}
	return img
}

// refGaussian5 is the two-pass float binomial blur.
func refGaussian5(src *Gray) *Gray {
	kernel := [5]float64{1, 4, 6, 4, 1}
	const norm = 16.0
	tmp := make([]float64, src.W*src.H)
	out := NewGray(src.W, src.H)
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			var acc float64
			for k := -2; k <= 2; k++ {
				xx := min(max(x+k, 0), src.W-1)
				acc += kernel[k+2] * float64(src.At(xx, y))
			}
			tmp[y*src.W+x] = acc / norm
		}
	}
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			var acc float64
			for k := -2; k <= 2; k++ {
				yy := min(max(y+k, 0), src.H-1)
				acc += kernel[k+2] * tmp[yy*src.W+x]
			}
			v := acc / norm
			if v > 255 {
				v = 255
			}
			out.Set(x, y, uint8(v))
		}
	}
	return out
}

// refCanny is the float Canny detector.
func refCanny(src *Gray, p CannyParams) *Gray {
	return refEdges(refGaussian5(src), p)
}

// refEdges is refCanny after the blur: float Sobel, NMS, hysteresis.
func refEdges(blurred *Gray, p CannyParams) *Gray {
	w, h := blurred.W, blurred.H
	mag := make([]float64, w*h)
	dir := make([]uint8, w*h)
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			gx := -float64(blurred.At(x-1, y-1)) + float64(blurred.At(x+1, y-1)) +
				-2*float64(blurred.At(x-1, y)) + 2*float64(blurred.At(x+1, y)) +
				-float64(blurred.At(x-1, y+1)) + float64(blurred.At(x+1, y+1))
			gy := -float64(blurred.At(x-1, y-1)) - 2*float64(blurred.At(x, y-1)) - float64(blurred.At(x+1, y-1)) +
				float64(blurred.At(x-1, y+1)) + 2*float64(blurred.At(x, y+1)) + float64(blurred.At(x+1, y+1))
			mag[y*w+x] = math.Hypot(gx, gy)
			angle := math.Atan2(gy, gx)
			if angle < 0 {
				angle += math.Pi
			}
			switch {
			case angle < math.Pi/8 || angle >= 7*math.Pi/8:
				dir[y*w+x] = 0
			case angle < 3*math.Pi/8:
				dir[y*w+x] = 1
			case angle < 5*math.Pi/8:
				dir[y*w+x] = 2
			default:
				dir[y*w+x] = 3
			}
		}
	}
	const (
		weak   = 128
		strong = 255
	)
	nms := NewGray(w, h)
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			m := mag[y*w+x]
			if m < p.LowThreshold {
				continue
			}
			var m1, m2 float64
			switch dir[y*w+x] {
			case 0:
				m1, m2 = mag[y*w+x-1], mag[y*w+x+1]
			case 1:
				m1, m2 = mag[(y-1)*w+x+1], mag[(y+1)*w+x-1]
			case 2:
				m1, m2 = mag[(y-1)*w+x], mag[(y+1)*w+x]
			default:
				m1, m2 = mag[(y-1)*w+x-1], mag[(y+1)*w+x+1]
			}
			if m < m1 || m < m2 {
				continue
			}
			if m >= p.HighThreshold {
				nms.Set(x, y, strong)
			} else {
				nms.Set(x, y, weak)
			}
		}
	}
	out := NewGray(w, h)
	var stack [][2]int
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if nms.At(x, y) == strong {
				out.Set(x, y, 255)
				stack = append(stack, [2]int{x, y})
			}
		}
	}
	for len(stack) > 0 {
		px := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				x, y := px[0]+dx, px[1]+dy
				if nms.At(x, y) == weak && out.At(x, y) == 0 {
					out.Set(x, y, 255)
					stack = append(stack, [2]int{x, y})
				}
			}
		}
	}
	return out
}

// refRegionFilter copies the central column band [left, right) into a
// new image.
func refRegionFilter(src *Gray, left, right float64) *Gray {
	out := NewGray(src.W, src.H)
	lo := int(left * float64(src.W))
	hi := int(right * float64(src.W))
	for y := 0; y < src.H; y++ {
		for x := lo; x < hi && x < src.W; x++ {
			out.Set(x, y, src.At(x, y))
		}
	}
	return out
}

// refHoughLinesP is the progressive probabilistic Hough transform with
// an []int accumulator, fresh buffers and rand.Perm ordering.
func refHoughLinesP(edges *Gray, p HoughParams, rng *rand.Rand) []LineSegment {
	w, h := edges.W, edges.H
	numTheta := int(math.Pi/p.ThetaResolution + 0.5)
	maxRho := math.Hypot(float64(w), float64(h))
	numRho := int(2*maxRho/p.RhoResolution) + 1
	var points []houghPoint
	present := make([]bool, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if edges.At(x, y) != 0 {
				points = append(points, houghPoint{x, y})
				present[y*w+x] = true
			}
		}
	}
	if len(points) == 0 {
		return nil
	}
	sins := make([]float64, numTheta)
	coss := make([]float64, numTheta)
	for t := 0; t < numTheta; t++ {
		angle := float64(t) * p.ThetaResolution
		sins[t] = math.Sin(angle)
		coss[t] = math.Cos(angle)
	}
	acc := make([]int, numTheta*numRho)
	rhoIndex := func(x, y, t int) int {
		rho := float64(x)*coss[t] + float64(y)*sins[t]
		return int((rho + maxRho) / p.RhoResolution)
	}
	var segments []LineSegment
	for _, idx := range rng.Perm(len(points)) {
		q := points[idx]
		if !present[q.y*w+q.x] {
			continue
		}
		bestVotes, bestTheta := 0, 0
		for t := 0; t < numTheta; t++ {
			r := rhoIndex(q.x, q.y, t)
			if r < 0 || r >= numRho {
				continue
			}
			acc[t*numRho+r]++
			if acc[t*numRho+r] > bestVotes {
				bestVotes = acc[t*numRho+r]
				bestTheta = t
			}
		}
		if bestVotes < p.Threshold {
			continue
		}
		dirX, dirY := -sins[bestTheta], coss[bestTheta]
		end := [2][2]float64{}
		for k := 0; k < 2; k++ {
			sign := 1.0
			if k == 1 {
				sign = -1
			}
			x, y := float64(q.x), float64(q.y)
			lastX, lastY := x, y
			gap := 0.0
			for {
				x += sign * dirX
				y += sign * dirY
				xi, yi := int(x+0.5), int(y+0.5)
				if xi < 0 || yi < 0 || xi >= w || yi >= h {
					break
				}
				if present[yi*w+xi] {
					lastX, lastY = x, y
					gap = 0
				} else {
					gap++
					if gap > p.MaxLineGap {
						break
					}
				}
			}
			end[k] = [2]float64{lastX, lastY}
		}
		seg := LineSegment{X1: end[1][0], Y1: end[1][1], X2: end[0][0], Y2: end[0][1]}
		if seg.Length() < p.MinLineLength {
			continue
		}
		steps := int(seg.Length()) + 1
		for i := 0; i <= steps; i++ {
			t := float64(i) / float64(steps)
			cx := seg.X1 + t*(seg.X2-seg.X1)
			cy := seg.Y1 + t*(seg.Y2-seg.Y1)
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					x, y := int(cx+0.5)+dx, int(cy+0.5)+dy
					if x < 0 || y < 0 || x >= w || y >= h || !present[y*w+x] {
						continue
					}
					present[y*w+x] = false
					for th := 0; th < numTheta; th++ {
						r := rhoIndex(x, y, th)
						if r >= 0 && r < numRho && acc[th*numRho+r] > 0 {
							acc[th*numRho+r]--
						}
					}
				}
			}
		}
		segments = append(segments, seg)
	}
	sort.Sort(refByLengthDesc(segments))
	return segments
}

type refByLengthDesc []LineSegment

func (s refByLengthDesc) Len() int           { return len(s) }
func (s refByLengthDesc) Less(i, j int) bool { return s[i].Length() > s[j].Length() }
func (s refByLengthDesc) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// refOutput is everything one reference cycle produces.
type refOutput struct {
	frame, edges *Gray
	segs         []LineSegment
	det          Detection
}

// refDetectFrame runs the reference pipeline on a rendered frame with
// the detector's parameters, drawing the Hough order from rng.
func refDetectFrame(d *Detector, frame *Gray, rng *rand.Rand) refOutput {
	edges := refRegionFilter(refCanny(frame, d.Canny), d.RegionLeft, d.RegionRight)
	segs := refHoughLinesP(edges, d.Hough, rng)
	out := refOutput{frame: frame, edges: edges, segs: segs, det: Detection{Segments: len(segs)}}
	if len(segs) == 0 {
		return out
	}
	best := segs[0]
	farU, farV := best.X1, best.Y1
	nearU, nearV := best.X2, best.Y2
	if best.Y2 < best.Y1 {
		farU, farV = best.X2, best.Y2
		nearU, nearV = best.X1, best.Y1
	}
	out.det.Found = true
	out.det.TargetForward, out.det.TargetLateral = d.Camera.PixelToGround(farU, farV)
	_, out.det.LateralError = d.Camera.PixelToGround(nearU, nearV)
	return out
}

// refDetect renders with refRender and runs refDetectFrame, consuming
// rng exactly as Detector.Detect does.
func refDetect(d *Detector, line *track.Line, pos geo.Point, heading float64, rng *rand.Rand) refOutput {
	return refDetectFrame(d, refRender(d.Camera, line, pos, heading, d.LineWidth, rng), rng)
}
