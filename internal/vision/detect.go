package vision

import (
	"math/rand"

	"itsbed/internal/geo"
	"itsbed/internal/sim"
	"itsbed/internal/track"
)

// Detection is the output of one line-detection cycle: the target
// point the motion planner should steer towards, in the vehicle frame.
type Detection struct {
	// Found reports whether any line was detected.
	Found bool
	// TargetForward and TargetLateral locate the far end of the
	// detected line in metres relative to the vehicle.
	TargetForward float64
	TargetLateral float64
	// LateralError is the lateral offset of the line at the near end
	// (the PID input).
	LateralError float64
	// Segments is the number of Hough segments found.
	Segments int
}

// Detector is the full Fig. 6 pipeline: render (capture), Canny,
// region filter, probabilistic Hough, and target extraction.
type Detector struct {
	Camera CameraModel
	Canny  CannyParams
	Hough  HoughParams
	// RegionLeft/Right bound the centre band kept by the region
	// filter, as width fractions.
	RegionLeft, RegionRight float64
	// LineWidth of the floor guide line in metres.
	LineWidth float64
	// src draws the frame noise; rng, over the same source, orders
	// the Hough points.
	src *sim.Source
	rng *rand.Rand

	// Per-frame scratch, reused across Detect calls so the 25 Hz
	// pipeline stops allocating megabytes of intermediates per frame.
	frame Gray
	canny cannyBuffers
	hough houghBuffers
}

// NewDetector builds a detector drawing from the given random stream
// (for frame noise and the probabilistic Hough ordering).
func NewDetector(src *sim.Source) *Detector {
	return &Detector{
		Camera:      DefaultZED(),
		Canny:       DefaultCanny(),
		Hough:       DefaultHough(),
		RegionLeft:  0.15,
		RegionRight: 0.85,
		LineWidth:   0.05,
		src:         src,
		rng:         rand.New(src),
	}
}

// Detect runs one full cycle for a vehicle at the given pose.
func (d *Detector) Detect(line *track.Line, pos geo.Point, heading float64) Detection {
	d.Camera.RenderInto(&d.frame, line, pos, heading, d.LineWidth, d.src)
	return d.DetectFrame(&d.frame)
}

// DetectFrame runs the pipeline on an already rendered frame.
func (d *Detector) DetectFrame(frame *Gray) Detection {
	edges := cannyInto(frame, d.Canny, &d.canny)
	regionFilterInPlace(edges, d.RegionLeft, d.RegionRight)
	segs := houghLinesPInto(edges, d.Hough, d.rng, &d.hough)
	if len(segs) == 0 {
		return Detection{}
	}
	// The guide line produces two parallel edges; take the longest
	// segment and steer towards its far (small v) endpoint.
	best := segs[0]
	farU, farV := best.X1, best.Y1
	nearU, nearV := best.X2, best.Y2
	if best.Y2 < best.Y1 {
		farU, farV = best.X2, best.Y2
		nearU, nearV = best.X1, best.Y1
	}
	fwd, lat := d.Camera.PixelToGround(farU, farV)
	_, nearLat := d.Camera.PixelToGround(nearU, nearV)
	return Detection{
		Found:         true,
		TargetForward: fwd,
		TargetLateral: lat,
		LateralError:  nearLat,
		Segments:      len(segs),
	}
}
