package perf

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"itsbed"
	"itsbed/internal/campaign"
	"itsbed/internal/experiments"
	"itsbed/internal/geo"
	"itsbed/internal/its/facilities/ldm"
	"itsbed/internal/its/messages"
	"itsbed/internal/units"
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

// BenchmarkCampaign1k measures the campaign engine's own overhead on a
// 1000-run campaign with a trivial attempt function, serial vs all
// cores, isolating scheduling and in-order collection cost from the
// simulation itself.
func BenchmarkCampaign1k(b *testing.B) {
	run := func(i int) (int, error) { return i, nil }
	accept := func(v int) bool { return v%2 == 0 }
	for _, w := range []int{1, runtime.NumCPU()} {
		b.Run(map[bool]string{true: "serial", false: "parallel"}[w == 1], func(b *testing.B) {
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
