package vision

import (
	"math"
	"math/rand"
	"testing"

	"itsbed/internal/geo"
	"itsbed/internal/sim"
	"itsbed/internal/track"
)

func straightLine() *track.Line {
	return track.MustLine([]geo.Point{{X: 0, Y: -5}, {X: 0, Y: 10}})
}

// stream returns the source of a kernel's "vision" stream: the same
// sequence for the same seed.
func stream(seed int64) *sim.Source { return sim.NewKernel(seed).Source("vision") }

// refStream returns a rand.Rand over stream(seed), for the reference
// pipeline to draw the sequence a detector on stream(seed) draws.
func refStream(seed int64) *rand.Rand { return rand.New(stream(seed)) }

// render draws one frame into a fresh image.
func render(cam CameraModel, line *track.Line, pos geo.Point, heading, lineWidthM float64, src *sim.Source) *Gray {
	img := new(Gray)
	cam.RenderInto(img, line, pos, heading, lineWidthM, src)
	return img
}

// canny runs the edge detector with fresh buffers.
func canny(src *Gray, p CannyParams) *Gray { return cannyInto(src, p, new(cannyBuffers)) }

// hough runs the Hough transform with fresh buffers.
func hough(edges *Gray, p HoughParams, rng *rand.Rand) []LineSegment {
	return houghLinesPInto(edges, p, rng, new(houghBuffers))
}

func TestGrayBounds(t *testing.T) {
	g := NewGray(4, 3)
	g.Set(0, 0, 10)
	g.Set(3, 2, 20)
	g.Set(-1, 0, 99) // ignored
	g.Set(4, 0, 99)  // ignored
	if g.At(0, 0) != 10 || g.At(3, 2) != 20 {
		t.Fatal("set/get")
	}
	if g.At(-1, 0) != 0 || g.At(4, 3) != 0 {
		t.Fatal("out of bounds must read 0")
	}
}

func TestRenderShowsLine(t *testing.T) {
	cam := DefaultZED()
	img := render(cam, straightLine(), geo.Point{X: 0, Y: 0}, 0, 0.05, nil)
	// The line runs vertically through the image centre: dark pixels
	// near u=W/2, light at the borders.
	mid := img.At(cam.Width/2, cam.Height/2)
	edge := img.At(2, cam.Height/2)
	if mid > 100 {
		t.Fatalf("line pixel %d, want dark", mid)
	}
	if edge < 150 {
		t.Fatalf("floor pixel %d, want light", edge)
	}
}

func TestRenderOffsetShiftsLine(t *testing.T) {
	cam := DefaultZED()
	// Vehicle to the right of the line → the line appears left of
	// centre.
	img := render(cam, straightLine(), geo.Point{X: 0.2, Y: 0}, 0, 0.05, nil)
	leftDark, rightDark := 0, 0
	for u := 0; u < cam.Width; u++ {
		if img.At(u, cam.Height/2) < 100 {
			if u < cam.Width/2 {
				leftDark++
			} else {
				rightDark++
			}
		}
	}
	if leftDark == 0 || rightDark != 0 {
		t.Fatalf("line pixels left=%d right=%d, want all left", leftDark, rightDark)
	}
}

func TestPixelToGroundRoundTrip(t *testing.T) {
	cam := DefaultZED()
	fwd, lat := cam.PixelToGround(float64(cam.Width-1)/2, float64(cam.Height-1))
	if math.Abs(lat) > 1e-9 {
		t.Fatalf("centre-bottom lateral %v", lat)
	}
	if math.Abs(fwd-cam.NearOffset) > 1e-9 {
		t.Fatalf("bottom row forward %v, want NearOffset", fwd)
	}
	fwdTop, _ := cam.PixelToGround(0, 0)
	if math.Abs(fwdTop-(cam.NearOffset+cam.PatchLength)) > 1e-9 {
		t.Fatalf("top row forward %v", fwdTop)
	}
}

func TestCannyFindsLineEdges(t *testing.T) {
	cam := DefaultZED()
	img := render(cam, straightLine(), geo.Point{}, 0, 0.05, nil)
	edges := canny(img, DefaultCanny())
	n := 0
	for _, p := range edges.Pix {
		if p != 0 {
			n++
		}
	}
	// Two vertical edges of ~full height: expect hundreds of pixels.
	if n < 100 {
		t.Fatalf("only %d edge pixels", n)
	}
	// Edge pixels hug the line boundary; none in the far corners.
	for _, u := range []int{1, cam.Width - 2} {
		for v := 1; v < cam.Height-1; v += 7 {
			if edges.At(u, v) != 0 {
				t.Fatalf("spurious edge at image border (%d,%d)", u, v)
			}
		}
	}
}

func TestCannyFlatImageNoEdges(t *testing.T) {
	img := NewGray(64, 64)
	for i := range img.Pix {
		img.Pix[i] = 128
	}
	edges := canny(img, DefaultCanny())
	for i, p := range edges.Pix {
		if p != 0 {
			t.Fatalf("edge at %d in a flat image", i)
		}
	}
}

func TestRegionFilter(t *testing.T) {
	img := NewGray(100, 10)
	for i := range img.Pix {
		img.Pix[i] = 255
	}
	regionFilterInPlace(img, 0.25, 0.75)
	out := img
	if out.At(10, 5) != 0 || out.At(90, 5) != 0 {
		t.Fatal("outside band not zeroed")
	}
	if out.At(50, 5) != 255 {
		t.Fatal("centre band zeroed")
	}
}

func TestHoughRecoversSyntheticLine(t *testing.T) {
	img := NewGray(100, 100)
	// Vertical line at u=40 from v=10 to v=90.
	for v := 10; v <= 90; v++ {
		img.Set(40, v, 255)
	}
	segs := hough(img, DefaultHough(), rand.New(rand.NewSource(1)))
	if len(segs) == 0 {
		t.Fatal("no segment found")
	}
	s := segs[0]
	if s.Length() < 80*0.7 {
		t.Fatalf("segment length %v, want most of the 80 px line", s.Length())
	}
	mu := (s.X1 + s.X2) / 2
	if math.Abs(mu-40) > 2 {
		t.Fatalf("segment at u=%v, want 40", mu)
	}
}

func TestHoughDiagonalLine(t *testing.T) {
	img := NewGray(100, 100)
	for i := 10; i <= 90; i++ {
		img.Set(i, i, 255)
	}
	segs := hough(img, DefaultHough(), rand.New(rand.NewSource(2)))
	if len(segs) == 0 {
		t.Fatal("no diagonal segment found")
	}
	s := segs[0]
	// Segment direction is arbitrary; compare the undirected angle.
	angle := math.Mod(math.Atan2(s.Y2-s.Y1, s.X2-s.X1)+math.Pi, math.Pi)
	if math.Abs(angle-math.Pi/4) > 0.1 {
		t.Fatalf("diagonal angle %v", angle)
	}
}

func TestHoughEmptyImage(t *testing.T) {
	img := NewGray(50, 50)
	if segs := hough(img, DefaultHough(), rand.New(rand.NewSource(1))); len(segs) != 0 {
		t.Fatalf("segments in an empty image: %d", len(segs))
	}
}

func TestHoughIgnoresSparseNoise(t *testing.T) {
	img := NewGray(100, 100)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		img.Set(rng.Intn(100), rng.Intn(100), 255)
	}
	segs := hough(img, DefaultHough(), rand.New(rand.NewSource(4)))
	if len(segs) != 0 {
		t.Fatalf("hallucinated %d segments from noise", len(segs))
	}
}

func TestDetectorOnTrack(t *testing.T) {
	det := NewDetector(stream(5))
	d := det.Detect(straightLine(), geo.Point{X: 0, Y: 0}, 0)
	if !d.Found {
		t.Fatal("line not detected")
	}
	if math.Abs(d.LateralError) > 0.08 {
		t.Fatalf("on-line lateral error %v", d.LateralError)
	}
	if d.TargetForward < 0.3 {
		t.Fatalf("target too close: %v", d.TargetForward)
	}
}

func TestDetectorSignConvention(t *testing.T) {
	det := NewDetector(stream(6))
	// Vehicle right of the line → the line (and target) appear to the
	// LEFT → negative lateral values.
	d := det.Detect(straightLine(), geo.Point{X: 0.15, Y: 0}, 0)
	if !d.Found {
		t.Fatal("line not detected")
	}
	if d.TargetLateral >= 0 {
		t.Fatalf("target lateral %v, want negative (left)", d.TargetLateral)
	}
	// Vehicle left of the line → line appears right.
	d2 := det.Detect(straightLine(), geo.Point{X: -0.15, Y: 0}, 0)
	if d2.Found && d2.TargetLateral <= 0 {
		t.Fatalf("target lateral %v, want positive (right)", d2.TargetLateral)
	}
}

func TestDetectorNoLineInView(t *testing.T) {
	det := NewDetector(stream(7))
	d := det.Detect(straightLine(), geo.Point{X: 3, Y: 0}, 0) // 3 m off the line
	if d.Found {
		t.Fatal("detected a line 3 m away from the patch")
	}
}

// TestDetectorBufferReuseMatchesFreshPipeline pins the scratch-buffer
// Detector against the allocating reference pipeline: over a sequence
// of poses with noisy frames, the reused buffers must produce
// bit-identical detections (same rng consumption, same pixels, same
// segments).
func TestDetectorBufferReuseMatchesFreshPipeline(t *testing.T) {
	line := straightLine()
	det := NewDetector(stream(42))
	fresh := refStream(42)
	poses := []geo.Point{
		{X: 0, Y: 0}, {X: 0.1, Y: 0.5}, {X: -0.12, Y: 1},
		{X: 0.05, Y: 1.5}, {X: 0, Y: 2}, {X: 0.2, Y: 2.5},
	}
	for i, pos := range poses {
		got := det.Detect(line, pos, 0)
		want := refDetect(det, line, pos, 0, fresh).det
		if got != want {
			t.Fatalf("pose %d: reused-buffer detection %+v != fresh %+v", i, got, want)
		}
	}
}

// TestCannyReusedBuffersMatchFresh feeds cannyInto frames of varying
// size through one buffer set and checks each result against the
// reference detector — shrinking then growing must not leak stale
// pixels.
func TestCannyReusedBuffersMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := new(cannyBuffers)
	for _, dim := range [][2]int{{64, 48}, {32, 24}, {160, 120}, {64, 48}} {
		img := NewGray(dim[0], dim[1])
		for i := range img.Pix {
			img.Pix[i] = uint8(rng.Intn(256))
		}
		got := cannyInto(img, DefaultCanny(), b)
		want := refCanny(img, DefaultCanny())
		if got.W != want.W || got.H != want.H {
			t.Fatalf("%v: dims %dx%d != %dx%d", dim, got.W, got.H, want.W, want.H)
		}
		for i := range want.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("%v: pixel %d differs: %d != %d", dim, i, got.Pix[i], want.Pix[i])
			}
		}
	}
}

// TestHoughReusedBuffersMatchFresh runs houghLinesPInto repeatedly with
// one buffer set and checks segments against the fresh-buffer
// reference with an identically seeded rng.
func TestHoughReusedBuffersMatchFresh(t *testing.T) {
	b := new(houghBuffers)
	reused := rand.New(rand.NewSource(11))
	fresh := rand.New(rand.NewSource(11))
	for round := 0; round < 4; round++ {
		img := NewGray(100, 100)
		for v := 5; v < 95; v++ {
			img.Set(30+round*10, v, 255)
		}
		for i := 20; i < 80; i++ {
			img.Set(i, i, 255)
		}
		got := houghLinesPInto(img, DefaultHough(), reused, b)
		want := refHoughLinesP(img, DefaultHough(), fresh)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d segments != %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: segment %d %+v != %+v", round, i, got[i], want[i])
			}
		}
	}
}

// NewGray allocates a zeroed image.
func NewGray(w, h int) *Gray {
	return &Gray{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel value, 0 outside the bounds.
func (g *Gray) At(x, y int) uint8 {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return 0
	}
	return g.Pix[y*g.W+x]
}

// Set writes a pixel, ignoring out-of-bounds coordinates.
func (g *Gray) Set(x, y int, v uint8) {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return
	}
	g.Pix[y*g.W+x] = v
}
