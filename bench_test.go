// Benchmarks regenerating each table and figure of the paper, plus the
// extension studies and micro-benchmarks of the load-bearing
// primitives. Run with:
//
//	go test -bench=. -benchmem
//
// The Table/Figure benches print the regenerated artefact once (on the
// first iteration) and then report the cost of producing it, so a
// single -bench run both reproduces the evaluation and measures the
// harness.
package itsbed_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"itsbed"
	"itsbed/internal/experiments"
	"itsbed/internal/its/messages"
	"itsbed/internal/units"
)

var printOnce sync.Map

// printArtifact emits the regenerated table/figure once per bench.
func printArtifact(b *testing.B, key, text string) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", text)
	}
}

// BenchmarkTableI_CauseRegistry regenerates the Table I cause-code
// registry.
func BenchmarkTableI_CauseRegistry(b *testing.B) {
	var text string
	for i := 0; i < b.N; i++ {
		text = ""
		for _, c := range messages.AllCauses() {
			text += fmt.Sprintf("%3d %-48s %d sub-causes\n", c.Code, c.Description, len(c.SubCauses))
		}
	}
	printArtifact(b, "table1", "TABLE I (registry extract):\n"+text)
}

// BenchmarkTableII_EndToEndLatency regenerates Table II: the five-run
// step-interval measurement of the emergency braking chain.
func BenchmarkTableII_EndToEndLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableII(experiments.ScenarioOptions{
			BaseSeed: 42, Runs: 5, UseVision: false,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printArtifact(b, "table2", res.Format())
		}
	}
}

// BenchmarkTableIII_BrakingDistance regenerates Table III: seven
// braking-distance runs.
func BenchmarkTableIII_BrakingDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableIII(experiments.ScenarioOptions{
			BaseSeed: 300, Runs: 7, UseVision: false,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printArtifact(b, "table3", res.Format())
		}
	}
}

// BenchmarkFigure7_DetectionReliability regenerates the Fig. 7
// detection-reliability study.
func BenchmarkFigure7_DetectionReliability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure7(9, 500)
		if i == 0 {
			printArtifact(b, "fig7", res.Format())
		}
	}
}

// BenchmarkFigure10_DetectionToStop regenerates the Fig. 10 video
// frame analysis.
func BenchmarkFigure10_DetectionToStop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure10(experiments.ScenarioOptions{
			BaseSeed: 4, Runs: 1, UseVision: false,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printArtifact(b, "fig10", res.Format())
		}
	}
}

// BenchmarkFigure11_EDF regenerates the Fig. 11 empirical distribution
// function of total delays.
func BenchmarkFigure11_EDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure11(experiments.ScenarioOptions{
			BaseSeed: 42, Runs: 5, UseVision: false,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printArtifact(b, "fig11", res.Format())
		}
	}
}

// BenchmarkExt_LatencyCDF regenerates the EXT-1 large-N latency study
// (scaled down per iteration; run cmd/itsbed cdf -runs 1000 for the full
// version).
func BenchmarkExt_LatencyCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.LatencyCDF(1000, 60, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printArtifact(b, "cdf", res.Format())
		}
	}
}

// BenchmarkExt_RadioComparison regenerates the EXT-2 interface
// comparison.
func BenchmarkExt_RadioComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RadioComparison(2000, 6, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printArtifact(b, "radios", res.Format())
		}
	}
}

// BenchmarkExt_Platoon regenerates the EXT-3 platoon study.
func BenchmarkExt_Platoon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.PlatoonStudy(3000, 4, 4, experiments.PlatoonITSG5, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printArtifact(b, "platoon", res.Format())
		}
	}
}

// BenchmarkExt_BlindCornerBaseline regenerates the EXT-4 baseline
// comparison.
func BenchmarkExt_BlindCornerBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.BlindCorner(4000, 6, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printArtifact(b, "baseline", res.Format())
		}
	}
}

// BenchmarkCampaignTableII measures the parallel campaign engine on a
// Table II-sized campaign (Runs=20) across worker counts. Expect
// near-linear scaling from workers=1 to workers=NumCPU; the bench also
// asserts the engine's determinism guarantee by requiring the
// formatted table to be byte-identical for every worker count.
func BenchmarkCampaignTableII(b *testing.B) {
	var mu sync.Mutex
	baseline := ""
	for _, w := range []int{1, 2, 4, 8, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.TableII(experiments.ScenarioOptions{
					BaseSeed: 42, Runs: 20, UseVision: false, Workers: w,
				})
				if err != nil {
					b.Fatal(err)
				}
				text := res.Format()
				mu.Lock()
				if baseline == "" {
					baseline = text
				} else if text != baseline {
					mu.Unlock()
					b.Fatalf("workers=%d produced a different Table II", w)
				}
				mu.Unlock()
			}
		})
	}
}

// BenchmarkScenario measures one full end-to-end emergency-braking
// scenario (assembly + simulation).
func BenchmarkScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := itsbed.RunQuick(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Stopped {
			b.Fatal("vehicle did not stop")
		}
	}
}

// --- micro-benchmarks of the primitives ------------------------------

func benchSampleDENM() *itsbed.DENM {
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

func BenchmarkDENMEncode(b *testing.B) {
	d := benchSampleDENM()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDENMDecode(b *testing.B) {
	data, err := benchSampleDENM().Encode()
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

func BenchmarkCAMEncodeDecode(b *testing.B) {
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
