package vision

import (
	"math"
	"math/rand"
	"slices"
)

// LineSegment is a detected line in pixel coordinates.
type LineSegment struct {
	X1, Y1, X2, Y2 float64
}

// Length returns the segment length in pixels.
func (s LineSegment) Length() float64 { return math.Hypot(s.X2-s.X1, s.Y2-s.Y1) }

// HoughParams tune the progressive probabilistic Hough transform
// (Matas et al., the algorithm behind OpenCV's HoughLinesP that the
// paper's line follower uses).
type HoughParams struct {
	// RhoResolution in pixels.
	RhoResolution float64
	// ThetaResolution in radians.
	ThetaResolution float64
	// Threshold is the accumulator vote count needed to declare a line.
	Threshold int
	// MinLineLength discards shorter segments.
	MinLineLength float64
	// MaxLineGap joins collinear segments separated by fewer pixels.
	MaxLineGap float64
}

// DefaultHough matches the OpenCV parameterisation typical for line
// following on a 160×120 frame.
func DefaultHough() HoughParams {
	return HoughParams{
		RhoResolution:   1,
		ThetaResolution: math.Pi / 180,
		Threshold:       20,
		MinLineLength:   20,
		MaxLineGap:      5,
	}
}

// houghBuffers holds the intermediates of one HoughLinesP invocation —
// notably the ~0.5 MB vote accumulator — for reuse across frames. The
// zero value is ready to use.
type houghBuffers struct {
	points     []houghPoint
	present    []bool
	sins, coss []float64
	acc        []int32 // votes never exceed the edge pixels of a frame
	bins       []int32 // one point's accumulator cell per theta
	order      []int
	segments   []LineSegment
}

type houghPoint struct{ x, y int }

// houghLinesPInto runs the progressive probabilistic Hough transform
// on a binary edge image and returns detected segments, longest first,
// using caller-owned scratch buffers. rng drives the random point
// selection; pass a deterministic source for reproducible runs. The
// returned slice aliases b.segments and stays valid until the next
// call with b. The rng consumption sequence is identical to a
// fresh-buffer run, so reuse cannot perturb deterministic campaigns.
func houghLinesPInto(edges *Gray, p HoughParams, rng *rand.Rand, b *houghBuffers) []LineSegment {
	w, h := edges.W, edges.H
	numTheta := int(math.Pi/p.ThetaResolution + 0.5)
	maxRho := math.Hypot(float64(w), float64(h))
	numRho := int(2*maxRho/p.RhoResolution) + 1

	// Collect edge points.
	if b.points == nil {
		b.points = make([]houghPoint, 0, w*h/16)
	}
	points := b.points[:0]
	b.present = ensureZeroed(b.present, w*h)
	present := b.present
	for i, v := range edges.Pix[:w*h] {
		if v != 0 {
			points = append(points, houghPoint{i % w, i / w})
			present[i] = true
		}
	}
	b.points = points
	if len(points) == 0 {
		return nil
	}

	// Precompute trig tables.
	if cap(b.sins) < numTheta {
		b.sins = make([]float64, numTheta)
		b.coss = make([]float64, numTheta)
	}
	sins := b.sins[:numTheta]
	coss := b.coss[:numTheta]
	for t := 0; t < numTheta; t++ {
		angle := float64(t) * p.ThetaResolution
		sins[t] = math.Sin(angle)
		coss[t] = math.Cos(angle)
	}

	b.acc = ensureZeroed(b.acc, numTheta*numRho)
	acc := b.acc
	b.bins = ensureZeroed(b.bins, numTheta)
	bins := b.bins
	cells := func(x, y int) {
		houghCells(x, y, maxRho, p.RhoResolution, numRho, sins, coss, bins)
	}
	segments := b.segments[:0]

	// Process points in random order (the "probabilistic" part). This
	// in-place shuffle replicates rand.Perm exactly (same Intn calls,
	// same result) while reusing the order slice.
	if cap(b.order) < len(points) {
		b.order = make([]int, len(points))
	}
	order := b.order[:len(points)]
	for i := range order {
		j := rng.Intn(i + 1)
		order[i] = order[j]
		order[j] = i
	}
	for _, idx := range order {
		q := points[idx]
		if !present[q.y*w+q.x] {
			continue // consumed by an earlier segment
		}
		// Vote.
		bestVotes, bestTheta := int32(0), 0
		cells(q.x, q.y)
		for t, i := range bins {
			if i < 0 {
				continue
			}
			acc[i]++
			if acc[i] > bestVotes {
				bestVotes = acc[i]
				bestTheta = t
			}
		}
		if int(bestVotes) < p.Threshold {
			continue
		}
		// Walk along the line direction from the seed point in both
		// directions, tolerating gaps up to MaxLineGap.
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
		// Erase the segment's points from the edge set and un-vote
		// them so they do not seed further lines.
		eraseAlong(seg, present, acc, w, h, bins, cells)
		segments = append(segments, seg)
	}
	b.segments = segments
	slices.SortFunc(segments, byLengthDesc)
	return segments
}

// byLengthDesc orders segments longest first. slices.SortFunc runs the
// same pattern-defeating quicksort as sort.Sort and consults only
// whether the result is negative, so equal-length segments keep the
// order a sort.Sort with Less "longer than" gives them, without boxing
// the slice in an interface.
func byLengthDesc(a, b LineSegment) int {
	switch la, lb := a.Length(), b.Length(); {
	case la > lb:
		return -1
	case la < lb:
		return 1
	}
	return 0
}

// houghCells writes into bins, for every theta, the accumulator cell
// t*numRho + r that point (x, y) votes for, or -1 when rho falls
// outside the accumulator. At the default unit resolution it skips
// the division, which leaves every rho as it is.
func houghCells(x, y int, maxRho, rhoRes float64, numRho int, sins, coss []float64, bins []int32) {
	fx, fy := float64(x), float64(y)
	sins = sins[:len(bins)]
	coss = coss[:len(bins)]
	if rhoRes == 1 {
		for t := range bins {
			bins[t] = houghCell(t, int(fx*coss[t]+fy*sins[t]+maxRho), numRho)
		}
		return
	}
	for t := range bins {
		bins[t] = houghCell(t, int((fx*coss[t]+fy*sins[t]+maxRho)/rhoRes), numRho)
	}
}

// houghCell is the accumulator cell of rho bin r at theta t, or -1
// when r falls outside the accumulator.
func houghCell(t, r, numRho int) int32 {
	if r < 0 || r >= numRho {
		return -1
	}
	return int32(t*numRho + r)
}

// eraseAlong removes points within 1 px of the segment from the
// present set and subtracts their accumulator votes. cells fills bins
// with a point's accumulator cells.
func eraseAlong(seg LineSegment, present []bool, acc []int32, w, h int, bins []int32, cells func(x, y int)) {
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
				cells(x, y)
				for _, c := range bins {
					if c < 0 {
						continue
					}
					v := acc[c]
					if v > 0 {
						v--
					}
					acc[c] = v
				}
			}
		}
	}
}
