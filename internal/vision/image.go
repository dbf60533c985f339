// Package vision implements the vehicle's line-following perception
// pipeline from Fig. 6 of the paper, for real: a synthetic camera
// frame is rendered from the vehicle pose and track geometry (the
// stand-in for the ZED capture), then passed through Canny edge
// detection and a probabilistic Hough transform to recover the line
// coordinates the motion planner steers towards.
package vision

import (
	"fmt"
	"math"

	"itsbed/internal/geo"
	"itsbed/internal/sim"
	"itsbed/internal/track"
)

// Gray is a single-channel 8-bit image.
type Gray struct {
	W, H int
	Pix  []uint8
	// spans is RenderInto's per-row scratch, kept for the next frame.
	spans []track.RowSpan
}

// ensure resizes g to w×h, reusing the backing array when it is large
// enough, and zeroes the pixels. It lets the detection pipeline reuse
// its per-frame images instead of allocating ~20 KB each at 25 Hz.
func (g *Gray) ensure(w, h int) {
	n := w * h
	if cap(g.Pix) < n {
		g.Pix = make([]uint8, n)
	} else {
		g.Pix = g.Pix[:n]
		clear(g.Pix)
	}
	g.W, g.H = w, h
}

// CameraModel is the vehicle's front camera in bird's-eye (inverse
// perspective mapped) form: the frame covers a ground patch ahead of
// the vehicle. Row H-1 is nearest the bumper; columns span laterally.
type CameraModel struct {
	// Width and Height of the frame in pixels.
	Width, Height int
	// PatchLength is the forward extent of the ground patch in metres.
	PatchLength float64
	// PatchWidth is the lateral extent in metres.
	PatchWidth float64
	// NearOffset is the distance from the rear axle to the bottom edge
	// of the patch.
	NearOffset float64
	// NoiseSigma is the additive Gaussian pixel noise (0..255 scale).
	NoiseSigma float64
}

// DefaultZED approximates the ZED stream the line follower consumes
// after region filtering.
func DefaultZED() CameraModel {
	return CameraModel{
		Width:       160,
		Height:      120,
		PatchLength: 1.2,
		PatchWidth:  0.8,
		NearOffset:  0.15,
		NoiseSigma:  6,
	}
}

// RenderInto renders the synthetic grayscale frame for a vehicle at
// the given pose into a caller-owned image (resized as needed): light
// floor (≈200), dark guide line (≈30) of the given width, with
// additive noise drawn from src: pixel i, in row-major order, adds the
// i-th of the frame's NormFloat64 values times NoiseSigma. src may be
// nil for a noiseless frame.
//
// A pixel is ink exactly when line.Within reports its centre within
// half the width. Each row asks the line for its spans: pixels
// certainly within are inked and pixels outside every possible span
// are floor without a test, so Within runs only for the few pixels
// at a span's edges. A row the line cannot classify (a non-finite
// pose, a width outside Within's range) tests every pixel.
func (c CameraModel) RenderInto(img *Gray, line *track.Line, pos geo.Point, heading float64, lineWidthM float64, src *sim.Source) {
	img.ensure(c.Width, c.Height)
	const floor, ink = 200, 30
	r := lineWidthM / 2
	cosH, sinH := math.Cos(heading), math.Sin(heading)
	// pixel returns the world position of column u in a row at
	// forward distance fwd.
	pixel := func(u int, fwd float64) geo.Point {
		lat := c.PatchWidth * (float64(u)/float64(c.Width-1) - 0.5)
		// Vehicle frame (fwd, lat) → world. Heading 0 is north
		// (+Y); lateral positive to the right.
		return geo.Point{X: pos.X + fwd*sinH + lat*cosH, Y: pos.Y + fwd*cosH - lat*sinH}
	}
	for v := 0; v < c.Height; v++ {
		// Row → forward distance (row 0 is far).
		fwd := c.NearOffset + c.PatchLength*float64(c.Height-1-v)/float64(c.Height-1)
		row := img.Pix[v*c.Width : (v+1)*c.Width]
		spans, ok := line.RowSpans(img.spans[:0], pixel(0, fwd), pixel(c.Width-1, fwd), c.Width, r)
		img.spans = spans
		for u := range row {
			row[u] = floor
			if !ok && line.Within(pixel(u, fwd), r) {
				row[u] = ink
			}
		}
		for _, s := range spans {
			for u := s.InLo; u < s.InHi; u++ {
				row[u] = ink
			}
		}
		for _, s := range spans {
			for u := s.Lo; u < s.Hi; u++ {
				if row[u] != ink && line.Within(pixel(u, fwd), r) {
					row[u] = ink
				}
			}
		}
	}
	if !(c.NoiseSigma > 0) || src == nil {
		return
	}
	// The noise comes in blocks small enough to stay on the stack.
	var block [256]float64
	for pix := img.Pix; len(pix) > 0; {
		noise := block[:min(len(pix), len(block))]
		src.NormFill(noise)
		for i, z := range noise {
			n := z * c.NoiseSigma
			f := float64(pix[i]) + n
			if f < 0 {
				f = 0
			}
			if f > 255 {
				f = 255
			}
			pix[i] = uint8(f)
		}
		pix = pix[len(noise):]
	}
}

// PixelToGround converts frame coordinates back to the vehicle frame:
// forward and lateral offsets in metres.
func (c CameraModel) PixelToGround(u, v float64) (fwd, lat float64) {
	fwd = c.NearOffset + c.PatchLength*(float64(c.Height-1)-v)/float64(c.Height-1)
	lat = c.PatchWidth * (u/float64(c.Width-1) - 0.5)
	return fwd, lat
}

// String implements fmt.Stringer.
func (c CameraModel) String() string {
	return fmt.Sprintf("cam %dx%d %.1fx%.1fm", c.Width, c.Height, c.PatchLength, c.PatchWidth)
}
