package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"itsbed/internal/campaign"
	"itsbed/internal/core"
	"itsbed/internal/edge"
	"itsbed/internal/geo"
	"itsbed/internal/perception"
	"itsbed/internal/sensors"
	"itsbed/internal/stack"
	"itsbed/internal/stats"
	"itsbed/internal/track"
	"itsbed/internal/vehicle"
	"itsbed/internal/world"
)

// The Fig. 1 use case, built for real: the protagonist drives north
// while a non-ITS road user crosses from the east at the conflict
// point. A corner building blocks the protagonist's diagonal line of
// sight (visually and for its LiDAR) until the crossing vehicle is
// almost in the lane. The road-side camera, mounted high at the
// corner, sees the crossing road the whole time.

// Blind-corner geometry constants.
const (
	// conflictY is the crossing road's centreline.
	conflictY = 5.6
	// cornerWallX is the building face east of the lane.
	cornerWallX = 0.8
	// crossingStartX and crossingSpeed time the crossing vehicle to
	// meet an unbraked protagonist at the conflict point; the crossing
	// vehicle is fast, so line of sight past the corner opens late.
	crossingStartX = 8.2
	crossingSpeed  = 2.0
	// collisionDistance below which the two vehicles touch.
	collisionDistance = 0.30
	// aebRangeGate and aebCorridor define the onboard AEB trigger: a
	// LiDAR return closer than the gate whose lateral offset falls
	// inside the vehicle's corridor.
	aebRangeGate = 1.3
	aebCorridor  = 0.45
)

// BlindCornerArmResult is one policy's outcome statistics.
type BlindCornerArmResult struct {
	Name string
	// StopMargins is the protagonist's distance short of the conflict
	// point at halt (negative: it entered the conflict box).
	StopMargins []float64
	Collisions  int
	Summary     stats.Summary
}

// BlindCornerResult compares the two arms.
type BlindCornerResult struct {
	Runs         int
	V2X, Onboard BlindCornerArmResult
}

// blindCornerArm runs one policy once.
func blindCornerArm(seed int64, v2x bool) (margin float64, collision bool, err error) {
	sc, err := labScene(seed)
	if err != nil {
		return 0, false, err
	}
	kernel, frame := sc.Kernel, sc.Frame
	layout := track.Layout{
		Line: track.MustLine([]geo.Point{{X: 0, Y: 0}, {X: 0, Y: 8}}),
		Camera: track.Camera{
			Position: geo.Point{X: 0.9, Y: 6.4},
			Facing:   3 * math.Pi / 4, // south-east, down the crossing road
			FOV:      120 * math.Pi / 180,
			MaxRange: 12,
		},
		ActionPointDistance: 2.8,
		Frame:               frame,
	}
	wm := world.NewMap([]world.Wall{{
		Segment:  geo.Segment{A: geo.Point{X: cornerWallX, Y: 3.0}, B: geo.Point{X: cornerWallX, Y: 5.3}},
		Material: world.MaterialConcrete,
	}})

	// Protagonist.
	vcfg := vehicle.DefaultConfig(layout)
	vcfg.UseVision = false
	rng := kernel.Rand("blindcorner.jitter")
	vcfg.CruiseSpeed += rng.Float64()*0.3 - 0.15

	// Crossing road user (non-ITS, per the paper's motivation).
	crossingPos := geo.Point{X: crossingStartX, Y: conflictY}
	kernel.Every(0, 10*time.Millisecond, func() {
		if crossingPos.X > -3 {
			crossingPos.X -= crossingSpeed * 0.01
		}
	})

	veh, obuNode, err := sc.Vehicle(vcfg, stack.Config{Name: "obu", StationID: 2001})
	if err != nil {
		return 0, false, err
	}
	obu := obuNode.Station()
	rsuNode, err := sc.Node(stack.Config{Name: "rsu", Role: stack.RoleRSU, StationID: 1001, Mobility: sc.At(layout.Camera.Position)})
	if err != nil {
		return 0, false, err
	}
	rsu := rsuNode.Station()

	obu.Start()
	rsu.Start()
	veh.Start()
	defer obu.Stop()
	defer rsu.Stop()
	defer veh.Stop()

	if v2x {
		// The road-side camera watches the CROSSING vehicle (body
		// shell appearance — an ordinary car).
		hcfg := edge.DefaultHazardConfig(frame.ToGeodetic(geo.Point{X: 0, Y: conflictY}))
		hcfg.ActionPointDistance = layout.ActionPointDistance
		hcfg.TriggerClasses = []perception.Class{perception.ClassCar, perception.ClassTruck}
		cam := sc.Edge(rsuNode, core.EdgeConfig{
			Camera: perception.CameraConfig{
				Camera: layout.Camera,
				Target: func() (geo.Point, float64, perception.Dressing, bool) {
					return crossingPos, 3 * math.Pi / 2, perception.DressingShell, true
				},
			},
			Hazard: hcfg,
		}).Camera
		cam.Start()
		defer cam.Stop()
	} else {
		// Onboard-only AEB: 20 Hz LiDAR against the corner building
		// and the crossing vehicle; brake on a return inside the
		// forward corridor.
		lidar := sensors.NewLidar(sensors.DefaultHokuyo(), kernel.Rand("lidar"))
		kernel.Every(0, 50*time.Millisecond, func() {
			if veh.StopIssued() {
				return
			}
			st := veh.Body.State()
			scan := lidar.Scan(wm, st.Position, st.Heading, []sensors.Target{
				{Position: crossingPos, Radius: 0.20},
			})
			for _, r := range scan {
				if !r.Hit || r.Range > aebRangeGate {
					continue
				}
				lateral := r.Range * math.Sin(r.Angle)
				forward := r.Range * math.Cos(r.Angle)
				if forward > 0 && math.Abs(lateral) <= aebCorridor {
					veh.EmergencyStop()
					return
				}
			}
		})
	}

	// Run until the protagonist halts, collides, or clears the
	// intersection.
	minSeparation := math.Inf(1)
	kernel.Every(0, 5*time.Millisecond, func() {
		d := veh.Body.State().Position.DistanceTo(crossingPos)
		if d < minSeparation {
			minSeparation = d
		}
	})
	kernel.RunUntil(30*time.Second, func() bool {
		if veh.Halted() {
			return true
		}
		return veh.Body.State().Position.Y > conflictY+1.0
	})
	// Let the crossing vehicle finish its transit so near-misses with
	// a stopped protagonist are measured too.
	kernel.Run(kernel.Now() + 3*time.Second)

	margin = conflictY - veh.Body.State().Position.Y
	return margin, minSeparation < collisionDistance, nil
}

// BlindCorner runs the Fig. 1 crossing scenario for both arms: run i
// seeds the V2X arm with baseSeed+i and the onboard arm with
// baseSeed+50000+i. workers bounds the concurrent runs (<= 0 selects
// runtime.NumCPU()); the result is identical for any value.
func BlindCorner(baseSeed int64, runs, workers int) (BlindCornerResult, error) {
	if runs <= 0 {
		runs = 30
	}
	type outcome struct {
		margin    float64
		collision bool
	}
	pairs, err := campaign.Map(campaign.Options{Workers: workers}, runs, func(i int) ([2]outcome, error) {
		var o [2]outcome
		var err error
		if o[0].margin, o[0].collision, err = blindCornerArm(baseSeed+int64(i), true); err != nil {
			return o, fmt.Errorf("experiments: blind corner V2X run %d: %w", i, err)
		}
		if o[1].margin, o[1].collision, err = blindCornerArm(baseSeed+50000+int64(i), false); err != nil {
			return o, fmt.Errorf("experiments: blind corner onboard run %d: %w", i, err)
		}
		return o, nil
	})
	if err != nil {
		return BlindCornerResult{}, err
	}
	out := BlindCornerResult{Runs: runs}
	out.V2X.Name = "network-aided (DENM)"
	out.Onboard.Name = "onboard-only (LiDAR, LoS-limited)"
	for a, arm := range []*BlindCornerArmResult{&out.V2X, &out.Onboard} {
		for _, o := range pairs {
			arm.StopMargins = append(arm.StopMargins, o[a].margin)
			if o[a].collision {
				arm.Collisions++
			}
		}
		arm.Summary = stats.Summarize(arm.StopMargins)
	}
	return out, nil
}

// Format renders the comparison.
func (r BlindCornerResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXT-4: Blind-corner crossing (Fig. 1 scenario), %d runs per arm\n", r.Runs)
	fmt.Fprintf(&b, "  %-32s %12s %12s %10s\n", "policy", "margin avg", "margin min", "collisions")
	for _, arm := range []BlindCornerArmResult{r.V2X, r.Onboard} {
		fmt.Fprintf(&b, "  %-32s %10.2f m %10.2f m %7d/%d\n",
			arm.Name, arm.Summary.Mean, arm.Summary.Min, arm.Collisions, r.Runs)
	}
	b.WriteString("Shape: the infrastructure sees the crossing vehicle over the corner and\n")
	b.WriteString("warns early; the onboard LiDAR only sees it once line of sight opens.\n")
	return b.String()
}
