package experiments

import (
	"math"

	"itsbed/internal/clock"
	"itsbed/internal/core"
	"itsbed/internal/edge"
	"itsbed/internal/geo"
	"itsbed/internal/sim"
	"itsbed/internal/track"
)

// labScene starts an uninstrumented scenario in the CISTER lab frame:
// a fresh kernel, LAN NTP, and the ITS-G5 medium every station joins.
func labScene(seed int64) (core.Scene, error) {
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		return core.Scene{}, err
	}
	sc := core.Scene{Kernel: sim.NewKernel(seed), Frame: frame, NTP: clock.DefaultLANNTP()}
	sc.Backend, err = sc.NewBackend(core.Config{Radio: core.RadioITSG5}, nil)
	return sc, err
}

// platoonSite is the straight north-south track of both platoon
// studies, from y = -half to y = +half. The road-side camera at
// (0, 6.6) looks back down the line (110° FOV, 14 m range); the hazard
// is advertised at the 1.52 m action point in front of it.
func platoonSite(frame *geo.Frame, half float64) (track.Layout, edge.HazardConfig) {
	const cameraY, actionPoint = 6.6, 1.52
	layout := track.Layout{
		Line: track.MustLine([]geo.Point{{X: 0, Y: -half}, {X: 0, Y: half}}),
		Camera: track.Camera{
			Position: geo.Point{X: 0, Y: cameraY},
			Facing:   math.Pi,
			FOV:      110 * math.Pi / 180,
			MaxRange: 14,
		},
		ActionPointDistance: actionPoint,
		Frame:               frame,
	}
	return layout, edge.DefaultHazardConfig(frame.ToGeodetic(geo.Point{X: 0, Y: cameraY - actionPoint}))
}
