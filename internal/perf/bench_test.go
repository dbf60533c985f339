package perf

import (
	"fmt"
	"math"
	"testing"
	"time"

	"itsbed"
	"itsbed/internal/campaign"
	"itsbed/internal/experiments"
	"itsbed/internal/geo"
	"itsbed/internal/its/facilities/ldm"
	"itsbed/internal/its/messages"
	"itsbed/internal/sim"
	"itsbed/internal/track"
	"itsbed/internal/units"
	"itsbed/internal/vision"
)

// sampleDENM is the collision-risk DENM the RSU emits in the paper's
// blind-corner scenario, with every optional container populated.
func sampleDENM() *messages.DENM {
	d := messages.NewDENM(1001)
	validity := uint32(120)
	d.Management = messages.ManagementContainer{
		ActionID:      messages.ActionID{OriginatingStationID: 1001, SequenceNumber: 7},
		DetectionTime: 700000000123,
		ReferenceTime: 700000000125,
		EventPosition: messages.ReferencePosition{
			Latitude:      units.LatitudeFromDegrees(41.178),
			Longitude:     units.LongitudeFromDegrees(-8.608),
			AltitudeValue: messages.AltitudeUnavailable,
		},
		ValidityDuration: &validity,
		StationType:      units.StationTypeRoadSideUnit,
	}
	d.Situation = &messages.SituationContainer{
		InformationQuality: 3,
		EventType: messages.EventType{
			CauseCode:    messages.CauseCollisionRisk,
			SubCauseCode: messages.CollisionRiskCrossing,
		},
	}
	d.Location = &messages.LocationContainer{Traces: []messages.Trace{{}}}
	return d
}

// sampleCAM is a moving passenger car's CAM.
func sampleCAM() *messages.CAM {
	cam := messages.NewCAM(2001, 42)
	cam.Basic = messages.BasicContainer{
		StationType: units.StationTypePassengerCar,
		Position: messages.ReferencePosition{
			Latitude:      units.LatitudeFromDegrees(41.178),
			Longitude:     units.LongitudeFromDegrees(-8.608),
			AltitudeValue: messages.AltitudeUnavailable,
		},
	}
	cam.HighFrequency = messages.BasicVehicleContainerHighFrequency{
		Heading: 900, HeadingConfidence: 10, Speed: 150, SpeedConfidence: 5,
		VehicleLength: 5, VehicleWidth: 3, Curvature: units.CurvatureUnavailable,
	}
	return cam
}

// sampleCPM is an RSU's CPM sharing four perceived objects — the
// occluded-pedestrian scenario's busiest frame.
func sampleCPM() *messages.CPM {
	c := messages.NewCPM(1001, 42)
	c.Management = messages.CpmManagementContainer{
		StationType: units.StationTypeRoadSideUnit,
		Position: messages.ReferencePosition{
			Latitude:      units.LatitudeFromDegrees(41.178),
			Longitude:     units.LongitudeFromDegrees(-8.608),
			AltitudeValue: messages.AltitudeUnavailable,
		},
	}
	for i := 0; i < 4; i++ {
		c.PerceivedObjects = append(c.PerceivedObjects, messages.PerceivedObject{
			ObjectID:          uint16(i + 1),
			TimeOfMeasurement: int16(-40 * i),
			XDistance:         int32(250 - 90*i),
			YDistance:         int32(-300 + 120*i),
			XSpeed:            -100,
			YSpeed:            15,
			Class:             messages.ObjectClassPerson,
			Confidence:        messages.ConfidenceUnavailable,
		})
	}
	return c
}

// benchLDM fills a map with n fresh sensed objects on a ring around
// the origin, the shape the hazard monitor queries every tick.
func benchLDM(b testing.TB, n int) *ldm.Map {
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		b.Fatal(err)
	}
	now := time.Second
	m := ldm.New(ldm.Config{Frame: frame, Now: func() time.Duration { return now }})
	for i := 0; i < n; i++ {
		angle := 2 * math.Pi * float64(i) / float64(n)
		pos := geo.Point{X: 6 * math.Cos(angle), Y: 6 * math.Sin(angle)}
		m.IngestSensedObject(fmt.Sprintf("person-%d", i), units.StationTypePedestrian,
			pos, 1.0, angle)
	}
	return m
}

func BenchmarkDENMEncode(b *testing.B) {
	d := sampleDENM()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDENMDecode(b *testing.B) {
	data, err := sampleDENM().Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := itsbed.DecodeDENM(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCAMRoundTrip(b *testing.B) {
	cam := sampleCAM()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := cam.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := itsbed.DecodeCAM(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCPMEncode(b *testing.B) {
	c := sampleCPM()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCPMDecode(b *testing.B) {
	data, err := sampleCPM().Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := itsbed.DecodeCPM(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLDMObjectsWithin measures the hazard monitor's LDM range
// query over 64 tracked objects — the path whose sort comparator used
// to recompute every distance O(n log n) times.
func BenchmarkLDMObjectsWithin(b *testing.B) {
	m := benchLDM(b, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := m.ObjectsWithin(geo.Point{}, 8); len(got) != 64 {
			b.Fatalf("query returned %d objects", len(got))
		}
	}
}

// BenchmarkLDMIngestCAMFleet1k measures one station's LDM at city-1000
// scale: a fresh map learns 1003 neighbours from their CAMs, then
// refreshes every one from the next round of CAMs.
func BenchmarkLDMIngestCAMFleet1k(b *testing.B) {
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		b.Fatal(err)
	}
	now := time.Second
	cfg := ldm.Config{Frame: frame, Now: func() time.Duration { return now }}
	cams := make([]*messages.CAM, 1003)
	for i := range cams {
		c := sampleCAM()
		c.Header.StationID = units.StationID(5000 + i)
		c.Basic.Position.Latitude += units.Latitude(37 * i)
		c.Basic.Position.Longitude -= units.Longitude(53 * i)
		cams[i] = c
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := ldm.New(cfg)
		for _, c := range cams {
			m.IngestCAM(c)
		}
		now += 100 * time.Millisecond
		for _, c := range cams {
			m.IngestCAM(c)
		}
		if objs, _ := m.Counts(); objs != len(cams) {
			b.Fatalf("LDM holds %d objects, want %d", objs, len(cams))
		}
	}
}

// BenchmarkTableIIAttempt measures one Table II attempt (assembly plus
// 30 simulated seconds of the emergency-braking chain, ground-truth
// line follower).
func BenchmarkTableIIAttempt(b *testing.B) {
	opt := experiments.ScenarioOptions{BaseSeed: 42, Runs: 1, Workers: 1, UseVision: false}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableII(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVisionAttempt is BenchmarkTableIIAttempt with the Fig. 6
// vision line follower, the CLI default.
func BenchmarkVisionAttempt(b *testing.B) {
	opt := experiments.ScenarioOptions{BaseSeed: 42, Runs: 1, Workers: 1, UseVision: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableII(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectFrame measures one vision cycle (render, Canny,
// region filter, Hough, target extraction) on the paper's lab line.
func BenchmarkDetectFrame(b *testing.B) {
	det, line, pos := paperLabDetector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(line, pos, 0)
	}
}

// BenchmarkRenderInto measures rendering one noisy frame (the vision
// cycle's capture stage) of the paper's lab line.
func BenchmarkRenderInto(b *testing.B) {
	render := paperLabRender()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render()
	}
}

// paperLabRender returns a function that renders the default camera's
// frame 0.03 m right of the PaperLab guide line, 1 m along it and
// slightly yawed, into one image, after rendering it once.
func paperLabRender() func() {
	cam, line := vision.DefaultZED(), track.PaperLab().Line
	img, src := new(vision.Gray), sim.NewKernel(42).Source("vision")
	render := func() { cam.RenderInto(img, line, geo.Point{X: 0.03, Y: 1}, 0.02, 0.05, src) }
	render()
	return render
}

// paperLabDetector returns a warmed-up detector 0.03 m right of the
// PaperLab guide line, 1 m along it, drawing from a kernel's stream as
// a vehicle's detector does.
func paperLabDetector() (*vision.Detector, *track.Line, geo.Point) {
	det := vision.NewDetector(sim.NewKernel(42).Source("vision.ego"))
	line := track.PaperLab().Line
	pos := geo.Point{X: 0.03, Y: 1}
	det.Detect(line, pos, 0)
	return det, line, pos
}

// BenchmarkCampaign1k measures the campaign engine's own overhead on a
// 1000-run campaign with a trivial attempt function, at one and four
// workers whatever the host's core count, isolating scheduling and
// in-order collection cost from the simulation itself.
func BenchmarkCampaign1k(b *testing.B) {
	run := func(i int) (int, error) { return i, nil }
	accept := func(v int) bool { return v%2 == 0 }
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := campaign.Collect(campaign.Options{Workers: w}, 1000, 2000, run, accept)
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != 1000 {
					b.Fatalf("collected %d", len(out))
				}
			}
		})
	}
}
