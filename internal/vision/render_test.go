package vision

import (
	"math"
	"math/rand"
	"testing"

	"itsbed/internal/geo"
	"itsbed/internal/sim"
	"itsbed/internal/track"
)

// renderLines are the guide lines the render tests draw.
var renderLines = []*track.Line{
	track.PaperLab().Line,
	// A straight north-south line through the origin.
	track.MustLine([]geo.Point{{X: 0, Y: -6}, {X: 0, Y: 6}}),
	// Four segments with three corners.
	track.MustLine([]geo.Point{{X: 0, Y: -2}, {X: 0, Y: 0.6}, {X: 0.4, Y: 1.2}, {X: 0.3, Y: 2}, {X: -0.2, Y: 3}}),
	// TestRenderLineWidthBoundary's diagonal.
	track.MustLine([]geo.Point{{X: -3, Y: -3}, {X: 3, Y: 3}}),
	// Short and east-west: both ends fit in one frame, and at heading
	// 0 the rows run parallel to it.
	track.MustLine([]geo.Point{{X: -0.2, Y: 1}, {X: 0.25, Y: 1}}),
}

// checkRender renders one frame without noise and one with noise
// seeded by seed, and requires RenderInto, the per-pixel Within render
// and the Project-based reference to agree on every pixel.
func checkRender(t *testing.T, what string, cam CameraModel, line *track.Line, pos geo.Point, heading, width float64, seed int64) {
	t.Helper()
	img := new(Gray)
	for _, noisy := range []bool{false, true} {
		var got *sim.Source
		var within, ref *rand.Rand
		if noisy {
			got, within, ref = stream(seed), refStream(seed), refStream(seed)
		}
		cam.RenderInto(img, line, pos, heading, width, got)
		sameGray(t, what+": Within", img, withinRender(cam, line, pos, heading, width, within))
		sameGray(t, what+": reference", img, refRender(cam, line, pos, heading, width, ref))
	}
}

// TestRenderEdgeCases renders the span classification's hard cases
// and requires every frame to match the per-pixel renders.
func TestRenderEdgeCases(t *testing.T) {
	cam := DefaultZED()
	const width = 0.05
	paper, intersection, corner, diagonal, short := renderLines[0], renderLines[1], renderLines[2], renderLines[3], renderLines[4]
	type pose struct {
		name    string
		line    *track.Line
		pos     geo.Point
		heading float64
		width   float64
	}
	poses := []pose{
		{"line ends in frame", paper, geo.Point{X: 0.02, Y: 5.3}, 0, width},
		{"line ends in frame, oblique", paper, geo.Point{X: -0.1, Y: 5.2}, 0.3, width},
		{"line starts in frame", paper, geo.Point{X: 0.01, Y: -0.5}, -0.1, width},
		{"whole short line in frame", short, geo.Point{X: 0.05, Y: 0.2}, 0.4, width},
		{"corner", corner, geo.Point{X: 0.1, Y: 0.2}, 0.2, width},
		{"corners, wide line", corner, geo.Point{X: 0.2, Y: 1}, -0.3, 0.3},
		{"rows parallel to the line", paper, geo.Point{X: -0.5, Y: 2}, math.Pi / 2, width},
		{"rows across the diagonal", diagonal, geo.Point{X: 0.3, Y: -0.5}, math.Pi / 4, width},
		{"rows parallel to the diagonal", diagonal, geo.Point{X: 0.3, Y: -0.5}, 3 * math.Pi / 4, width},
		{"intersection", intersection, geo.Point{X: 0.01, Y: -1}, 0, width},
		{"intersection, oblique", intersection, geo.Point{X: 0.4, Y: 0.5}, math.Pi + math.Pi/4, width},
		{"NaN position", paper, geo.Point{X: math.NaN(), Y: 1}, 0, width},
		{"infinite position", paper, geo.Point{X: 0, Y: math.Inf(-1)}, 0, width},
		{"far position", paper, geo.Point{X: 1e300, Y: -1e300}, 0.1, width},
		{"NaN heading", paper, geo.Point{X: 0, Y: 1}, math.NaN(), width},
		{"infinite heading", paper, geo.Point{X: 0, Y: 1}, math.Inf(1), width},
		{"zero width", paper, geo.Point{X: 0, Y: 1}, 0, 0},
		{"negative width", paper, geo.Point{X: 0, Y: 1}, 0, -width},
		{"NaN width", paper, geo.Point{X: 0, Y: 1}, 0, math.NaN()},
		{"infinite width", paper, geo.Point{X: 0, Y: 1}, 0, math.Inf(1)},
	}
	// Within's range of r is [1e-150, 1e150]; place r on each limit
	// and one ulp outside it.
	for _, r := range []float64{1e-150, math.Nextafter(1e-150, 0), 1e150, math.Nextafter(1e150, math.Inf(1))} {
		poses = append(poses, pose{"width at Within's range limit", paper, geo.Point{X: 0, Y: 1}, 0.2, 2 * r})
	}
	// Rows parallel to the short line, each row's centre r from it
	// and up to two ulps either side.
	r := width / 2
	for _, v := range []int{0, 37, 119} {
		fwd, _ := cam.PixelToGround(0, float64(v))
		for _, edge := range []float64{1 - r, 1 + r} {
			y := edge - fwd
			for k := -2; k <= 2; k++ {
				p := y
				for j := 0; j < max(k, -k); j++ {
					p = math.Nextafter(p, float64(k)*math.Inf(1))
				}
				poses = append(poses, pose{"rows parallel to the line at its edge", short, geo.Point{X: 0, Y: p}, 0, width})
			}
		}
	}
	for i, p := range poses {
		checkRender(t, p.name, cam, p.line, p.pos, p.heading, p.width, int64(i))
	}
}

// FuzzRenderMatchesReference renders a frame of a fuzzed line at a
// fuzzed pose, width and noise seed and requires it to match the
// per-pixel renders.
func FuzzRenderMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.03, 1.0, 0.0, 0.05)
	f.Add(int64(2), uint8(1), 0.4, 0.5, math.Pi+math.Pi/4, 0.05)
	f.Add(int64(3), uint8(2), 0.1, 0.2, 0.2, 0.3)
	f.Add(int64(4), uint8(3), 0.3, -0.5, 3*math.Pi/4, 0.05)
	f.Add(int64(5), uint8(4), 0.0, 1-0.025-0.15, 0.0, 0.05)
	f.Add(int64(6), uint8(0), math.NaN(), math.Inf(1), -1e300, 2e-150)
	cam := DefaultZED()
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, x, y, heading, width float64) {
		line := renderLines[int(shape)%len(renderLines)]
		checkRender(t, "fuzz", cam, line, geo.Point{X: x, Y: y}, heading, width, seed)
	})
}

// withinTests counts the pixels of a frame RenderInto tests with
// Within: those in a row's possible spans but in none of its certain
// ones, or every pixel of a row the line cannot classify.
func withinTests(c CameraModel, line *track.Line, pos geo.Point, heading, width float64) int {
	cosH, sinH := math.Cos(heading), math.Sin(heading)
	pixel := func(u int, fwd float64) geo.Point {
		lat := c.PatchWidth * (float64(u)/float64(c.Width-1) - 0.5)
		return geo.Point{X: pos.X + fwd*sinH + lat*cosH, Y: pos.Y + fwd*cosH - lat*sinH}
	}
	n := 0
	for v := 0; v < c.Height; v++ {
		fwd := c.NearOffset + c.PatchLength*float64(c.Height-1-v)/float64(c.Height-1)
		spans, ok := line.RowSpans(nil, pixel(0, fwd), pixel(c.Width-1, fwd), c.Width, width/2)
		if !ok {
			n += c.Width
			continue
		}
	pixels:
		for u := 0; u < c.Width; u++ {
			near := false
			for _, s := range spans {
				if s.InLo <= u && u < s.InHi {
					continue pixels
				}
				near = near || s.Lo <= u && u < s.Hi
			}
			if near {
				n++
			}
		}
	}
	return n
}

// TestRenderTestsFewPixels drives the default camera along the paper's
// lab line, weaving across it, and requires RenderInto to test fewer
// than one pixel per frame with Within on average: the span margins
// are far narrower than a pixel.
func TestRenderTestsFewPixels(t *testing.T) {
	cam := DefaultZED()
	line := track.PaperLab().Line
	frames, tests := 0, 0
	for y := -1.0; y < 6; y += 0.01 {
		tests += withinTests(cam, line, geo.Point{X: 0.03 * math.Sin(y), Y: y}, 0.05*math.Cos(3*y), 0.05)
		frames++
	}
	t.Logf("%d Within tests in %d frames", tests, frames)
	if tests >= frames {
		t.Fatalf("%d Within tests in %d frames, want fewer than one per frame", tests, frames)
	}
}
