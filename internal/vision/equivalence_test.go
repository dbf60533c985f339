package vision

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"itsbed/internal/geo"
	"itsbed/internal/track"
)

// sameGray reports the first pixel where a and b differ.
func sameGray(t *testing.T, what string, got, want *Gray) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: %dx%d != reference %dx%d", what, got.W, got.H, want.W, want.H)
	}
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatalf("%s: pixel (%d,%d) = %d, reference %d", what, i%want.W, i/want.W, got.Pix[i], want.Pix[i])
		}
	}
}

// checkCycle compares the detector's last cycle — frame, edge image,
// segments and detection — with a reference cycle.
func checkCycle(t *testing.T, what string, d *Detector, got Detection, want refOutput) {
	t.Helper()
	sameGray(t, what+" frame", &d.frame, want.frame)
	sameGray(t, what+" edges", &d.canny.out, want.edges)
	segs := d.hough.segments[:got.Segments]
	if len(segs) != len(want.segs) {
		t.Fatalf("%s: %d segments, reference %d", what, len(segs), len(want.segs))
	}
	for i := range segs {
		if segs[i] != want.segs[i] {
			t.Fatalf("%s: segment %d %+v, reference %+v", what, i, segs[i], want.segs[i])
		}
	}
	if got != want.det {
		t.Fatalf("%s: detection %+v, reference %+v", what, got, want.det)
	}
}

// sobelSquares counts the interior pixels of img's blurred form whose
// integer Sobel gradient has squared magnitude exactly s.
func sobelSquares(img *Gray, s int) int {
	b := refGaussian5(img)
	n := 0
	for y := 1; y < b.H-1; y++ {
		for x := 1; x < b.W-1; x++ {
			p := func(dx, dy int) int { return int(b.At(x+dx, y+dy)) }
			gx := p(1, -1) - p(-1, -1) + 2*(p(1, 0)-p(-1, 0)) + p(1, 1) - p(-1, 1)
			gy := p(-1, 1) + 2*p(0, 1) + p(1, 1) - p(-1, -1) - 2*p(0, -1) - p(1, -1)
			if gx*gx+gy*gy == s {
				n++
			}
		}
	}
	return n
}

// TestPipelineMatchesReference runs the detector and the float
// reference pipeline side by side over 600 seeded poses, headings,
// noise levels, line widths, thresholds and Hough resolutions on a
// straight and a bent line, and requires every frame, edge image,
// segment list and detection to be bit-identical. The noisy frames
// must also contain gradients of magnitude exactly 50 and 150, where
// the fast path's threshold gate sits, and the Hough transform must
// find segments both at the unit rho resolution, which skips the
// division, and off it.
func TestPipelineMatchesReference(t *testing.T) {
	lines := []*track.Line{
		straightLine(),
		track.MustLine([]geo.Point{{X: 0, Y: -2}, {X: 0, Y: 0.6}, {X: 0.4, Y: 1.2}, {X: 0.3, Y: 2}, {X: -0.2, Y: 3}}),
	}
	noises := []float64{0, 6, 15, 40}
	params := []CannyParams{DefaultCanny(), {LowThreshold: 30, HighThreshold: 90}, {LowThreshold: 50.5, HighThreshold: 151}}
	houghs := []HoughParams{DefaultHough()}
	for _, res := range [][2]float64{{0.5, math.Pi / 180}, {1.5, math.Pi / 180}, {2, math.Pi / 180}, {1, math.Pi / 90}, {2, math.Pi / 360}} {
		hp := DefaultHough()
		hp.RhoResolution, hp.ThetaResolution = res[0], res[1]
		houghs = append(houghs, hp)
	}
	segsAt := map[bool]int{} // segments found, by whether rho is unit
	const cases = 600
	det := NewDetector(stream(13))
	refRng := refStream(13)
	poses := rand.New(rand.NewSource(14))
	hits50, hits150 := 0, 0
	for i := 0; i < cases; i++ {
		line := lines[i%len(lines)]
		det.Camera.NoiseSigma = noises[i%len(noises)]
		det.Canny = params[0]
		if i%7 == 3 {
			det.Canny = params[1+i%2]
		}
		det.Hough = houghs[0]
		if i%3 == 1 {
			det.Hough = houghs[1+i/3%(len(houghs)-1)]
		}
		det.LineWidth = 0.05
		if i%5 == 4 {
			det.LineWidth = 0.02 + 0.1*poses.Float64()
		}
		pos := geo.Point{X: 0.5 * (poses.Float64() - 0.5), Y: 2.5 * poses.Float64()}
		heading := 0.8 * (poses.Float64() - 0.5)
		got := det.Detect(line, pos, heading)
		want := refDetect(det, line, pos, heading, refRng)
		checkCycle(t, fmt.Sprintf("case %d", i), det, got, want)
		segsAt[det.Hough.RhoResolution == 1] += got.Segments
		if i < 120 {
			hits50 += sobelSquares(want.frame, 50*50)
			hits150 += sobelSquares(want.frame, 150*150)
		}
	}
	if hits50 == 0 || hits150 == 0 {
		t.Fatalf("frames hold %d gradients of magnitude exactly 50 and %d of 150; want both > 0", hits50, hits150)
	}
	if segsAt[true] == 0 || segsAt[false] == 0 {
		t.Fatalf("%d segments at unit rho resolution and %d off it; want both > 0", segsAt[true], segsAt[false])
	}
	t.Logf("%d cases; first 120 frames hold %d gradients of magnitude exactly 50 and %d of 150; %d segments at unit rho, %d off it",
		cases, hits50, hits150, segsAt[true], segsAt[false])
}

// TestSobelGateMatchesFloat checks the integer Sobel gate against the
// float one it replaces, s < low²(1 − 1e-9), for every squared
// magnitude an 8-bit frame can give, at thresholds off and on the
// integers, huge, infinite, zero, negative and NaN; then the edge
// images at those thresholds against the reference on noisy frames.
func TestSobelGateMatchesFloat(t *testing.T) {
	const maxSquare = 2 * 1020 * 1020
	lows := []float64{0, 0.5, 1, 30, 50, 50.5, 150, 1442.5, 1e6, math.Inf(1), -3, math.NaN(), 1e-200}
	for _, low := range lows {
		float := 0.0
		if low > 0 {
			float = low * low * (1 - 1e-9)
		}
		gate := sobelGate(low)
		for s := int32(0); s <= maxSquare; s++ {
			if s < gate != (float64(s) < float) {
				t.Fatalf("LowThreshold %v: s = %d is gated %v by the integer bound %d, %v by the float one", low, s, s < gate, gate, float64(s) < float)
			}
		}
	}
	b := new(cannyBuffers)
	rng := rand.New(rand.NewSource(24))
	for _, p := range []CannyParams{{0, 150}, {0.5, 150}, {50.5, 151}, {1e6, 1e6}, {math.Inf(1), math.Inf(1)}, {math.NaN(), 150}} {
		for round := 0; round < 20; round++ {
			img := NewGray(40, 30)
			for i := range img.Pix {
				img.Pix[i] = uint8(100 + rng.Intn(8+round*10))
			}
			sameGray(t, fmt.Sprintf("LowThreshold %v", p.LowThreshold), cannyInto(img, p, b), refCanny(img, p))
		}
	}
}

// plant writes a 3×3 neighbourhood around (x, y) whose integer Sobel
// gradient is (gx, gy); Sobel pairs always share parity.
func plant(img *Gray, x, y, gx, gy int) {
	const base = 128
	odd := gx & 1
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			img.Set(x+dx, y+dy, base)
		}
	}
	img.Set(x+1, y, uint8(base+(gx-odd)/2))
	img.Set(x, y+1, uint8(base+(gy-odd)/2))
	img.Set(x+1, y+1, uint8(base+odd))
}

// TestEdgesMatchReferenceAtThresholds feeds the post-blur stage
// images whose gradients sit exactly on the thresholds — (30,40),
// (14,48) and (0,50) have magnitude 50, (90,120) magnitude 150 — and
// pairs on which math.Hypot is inexact, planted three to an image;
// then random low-contrast images, which hit both thresholds and put
// equal magnitudes next to each other many times.
func TestEdgesMatchReferenceAtThresholds(t *testing.T) {
	pairs := [][2]int{
		{30, 40}, {40, 30}, {14, 48}, {48, 14}, {0, 50}, {50, 0}, {-30, 40}, {30, -40}, {-14, -48},
		{90, 120}, {120, 90}, {0, 150}, {-90, 120}, {42, 144},
		{70, 240}, {240, 70}, // Hypot(70, 240) is not exactly 250
	}
	var inexact int
	for _, pq := range pairs {
		h := math.Hypot(float64(pq[0]), float64(pq[1]))
		if h != math.Round(h) {
			inexact++
		}
	}
	if inexact == 0 {
		t.Fatal("no pair exercises an inexact Hypot")
	}
	b := new(cannyBuffers)
	for _, p := range []CannyParams{DefaultCanny(), {LowThreshold: 150, HighThreshold: 250}, {LowThreshold: 50, HighThreshold: 50}} {
		for _, pq := range pairs {
			img := NewGray(12, 9)
			for i := range img.Pix {
				img.Pix[i] = 128
			}
			plant(img, 3, 3, pq[0], pq[1])
			plant(img, 4, 6, pq[0], pq[1])
			plant(img, 7, 6, pq[1]&^1|pq[0]&1, pq[0])
			sameGray(t, "planted", edgesInto(img, p, b), refEdges(img, p))
		}
	}
	rng := rand.New(rand.NewSource(21))
	hits := map[int]int{}
	for round := 0; round < 3000; round++ {
		img := NewGray(16, 12)
		span := 8 + rng.Intn(40)
		for i := range img.Pix {
			img.Pix[i] = uint8(100 + rng.Intn(span))
		}
		for y := 1; y < img.H-1; y++ {
			for x := 1; x < img.W-1; x++ {
				p := func(dx, dy int) int { return int(img.At(x+dx, y+dy)) }
				gx := p(1, -1) - p(-1, -1) + 2*(p(1, 0)-p(-1, 0)) + p(1, 1) - p(-1, 1)
				gy := p(-1, 1) + 2*p(0, 1) + p(1, 1) - p(-1, -1) - 2*p(0, -1) - p(1, -1)
				hits[gx*gx+gy*gy]++
			}
		}
		sameGray(t, "random", edgesInto(img, DefaultCanny(), b), refEdges(img, DefaultCanny()))
	}
	if hits[2500] == 0 || hits[22500] == 0 {
		t.Fatalf("random images hit magnitude 50 %d times and 150 %d times; want both > 0", hits[2500], hits[22500])
	}
}

// TestBlurMatchesReference checks the integer blur against the float
// one on random frames of every small size, where the border clamps
// overlap.
func TestBlurMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	b := new(cannyBuffers)
	for w := 1; w <= 9; w++ {
		for h := 1; h <= 9; h++ {
			for round := 0; round < 20; round++ {
				img := NewGray(w, h)
				for i := range img.Pix {
					img.Pix[i] = uint8(rng.Intn(256))
					if round%4 == 0 {
						img.Pix[i] = 255
					}
				}
				sameGray(t, "blur", gaussian5(img, b), refGaussian5(img))
				sameGray(t, "canny", cannyInto(img, DefaultCanny(), b), refCanny(img, DefaultCanny()))
			}
		}
	}
}

// TestRenderLineWidthBoundary places pixel centres exactly on the
// guide line's edge, |lateral| == LineWidth/2, and one ulp either
// side: on a straight line, where the offset is a plain subtraction,
// and off a diagonal line at random headings and widths. The
// squared-distance render must ink the same pixels as the
// Project-based one.
func TestRenderLineWidthBoundary(t *testing.T) {
	cam := DefaultZED()
	cam.NoiseSigma = 0
	line := straightLine()
	const lineWidth = 0.05
	r := lineWidth / 2
	onEdge := 0
	for _, u := range []int{40, 70, 79, 80, 81, 95, 120} {
		lat := cam.PatchWidth * (float64(u)/float64(cam.Width-1) - 0.5)
		for _, edge := range []float64{r, -r} {
			x := edge - lat
			for step := 0; step < 64 && x+lat != edge; step++ {
				x = math.Nextafter(x, math.Copysign(math.Inf(1), edge-(x+lat)))
			}
			if x+lat != edge {
				continue
			}
			onEdge++
			for _, px := range []float64{x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1))} {
				pos := geo.Point{X: px, Y: 1}
				sameGray(t, "boundary", render(cam, line, pos, 0, lineWidth, nil), refRender(cam, line, pos, 0, lineWidth, nil))
			}
		}
	}
	if onEdge == 0 {
		t.Fatal("no pixel centre landed exactly on the line edge")
	}
	// On a diagonal line the offset is rounded, so the squared
	// distance and Hypot can fall on different sides of r (for about
	// 2% of points placed r off the line, though none at r = 0.025).
	// Place a random pixel of a small frame r off the line for a
	// random width and heading, then nudge the pose by up to two ulps.
	diagonal := track.MustLine([]geo.Point{{X: -3, Y: -3}, {X: 3, Y: 3}})
	small := cam
	small.Width, small.Height = 16, 12
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		u, v := rng.Intn(small.Width), rng.Intn(small.Height)
		heading := 2 * math.Pi * rng.Float64()
		width := 0.02 + 0.2*rng.Float64()
		r := width / 2
		fwd, lat := small.PixelToGround(float64(u), float64(v))
		along, side := 4*rng.Float64()-2, float64(1-2*(i%2))
		target := geo.Point{X: along - side*r/math.Sqrt2, Y: along + side*r/math.Sqrt2}
		cosH, sinH := math.Cos(heading), math.Sin(heading)
		pos := geo.Point{X: target.X - fwd*sinH - lat*cosH, Y: target.Y - fwd*cosH + lat*sinH}
		for k := -2; k <= 2; k++ {
			p := pos
			for j := 0; j < max(k, -k); j++ {
				p.X = math.Nextafter(p.X, float64(k)*math.Inf(1))
			}
			sameGray(t, "diagonal", render(small, diagonal, p, heading, width, nil), refRender(small, diagonal, p, heading, width, nil))
		}
	}
}

// FuzzDetectFrameMatchesReference renders a frame at a fuzzed pose,
// overwrites its leading pixels with fuzzed bytes, and requires the
// detector and the reference pipeline to agree on every frame, edge
// image, segment list and detection.
func FuzzDetectFrameMatchesReference(f *testing.F) {
	f.Add(int64(1), 0.0, 0.0, 0.0, []byte{})
	f.Add(int64(2), 0.1, 1.0, 0.2, []byte{0, 255, 0, 255, 128, 128, 30, 200})
	f.Add(int64(3), 0.025, 0.0, 0.0, []byte("\x80\x80\x80\x80\x9e\x80\x80\x8f"))
	f.Add(int64(4), math.NaN(), math.Inf(1), -1e300, []byte{})
	line := track.PaperLab().Line
	f.Fuzz(func(t *testing.T, seed int64, x, y, heading float64, data []byte) {
		det := NewDetector(stream(seed))
		refRng := refStream(seed)
		pos := geo.Point{X: x, Y: y}
		det.Camera.RenderInto(&det.frame, line, pos, heading, det.LineWidth, det.src)
		frame := refRender(det.Camera, line, pos, heading, det.LineWidth, refRng)
		sameGray(t, "frame", &det.frame, frame)
		copy(det.frame.Pix, data)
		copy(frame.Pix, data)
		got := det.DetectFrame(&det.frame)
		checkCycle(t, "fuzz", det, got, refDetectFrame(det, frame, refRng))
	})
}
