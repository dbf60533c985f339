package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"itsbed/internal/campaign"
	"itsbed/internal/core"
	"itsbed/internal/geo"
	"itsbed/internal/openc2x"
	"itsbed/internal/perception"
	"itsbed/internal/physics"
	"itsbed/internal/sensors"
	"itsbed/internal/stack"
	"itsbed/internal/units"
	"itsbed/internal/vehicle"
)

// EXT-6: platoon emergency braking with and without V2X at the
// followers. The paper's future work asks for the detection-to-action
// delay of an entire platoon; the safety-relevant consequence is
// string stability — when only the leader is ETSI ITS-capable, the
// braking wave propagates through each follower's sensor chain and
// amplifies, while a geo-broadcast DENM brakes every member within one
// poll period.

// PlatoonACCRow is one gap configuration's outcome.
type PlatoonACCRow struct {
	// Gap is the initial bumper-to-bumper following distance (metres).
	Gap float64
	// V2XCollisions and ACCCollisions count runs with at least one
	// rear-end contact in the respective arm.
	V2XCollisions int
	ACCCollisions int
	// V2XMinGap and ACCMinGap are the smallest centre-to-centre
	// separations observed across runs (metres).
	V2XMinGap float64
	ACCMinGap float64
	Runs      int
}

// platoonFollower is a simplified follower: straight-lane longitudinal
// dynamics under LiDAR-based ACC, optionally with an OBU poller.
type platoonFollower struct {
	body      *physics.Body
	lidar     *sensors.Lidar
	lastRange float64
	hasRange  bool
	stopped   bool
}

// followerCarRadius approximates the predecessor's rear as a circular
// LiDAR target.
const followerCarRadius = 0.15

// accDesiredHeadway adds a speed-dependent term to the standstill gap.
const accDesiredHeadway = 0.30 // seconds

// accPair is one seeded paired attempt: both arms under the same seed.
// valid is false when either arm's detection chain failed (the pair is
// voided and retried, like a repeatable lab failure).
type accPair struct {
	v2xCollided, accCollided bool
	v2xMin, accMin           float64
	valid                    bool
}

// PlatoonACC runs the study: for each initial gap, `runs` seeded
// repetitions of both arms. workers bounds the concurrent paired runs
// across the whole sweep (<= 0 selects runtime.NumCPU()).
func PlatoonACC(baseSeed int64, runs int, gaps []float64, workers int) ([]PlatoonACCRow, error) {
	if runs <= 0 {
		runs = 10
	}
	if len(gaps) == 0 {
		gaps = []float64{0.5, 0.7, 0.9, 1.2}
	}
	return sweep(ScenarioOptions{BaseSeed: baseSeed, Runs: runs, Workers: workers}, 10000, gaps,
		func(gap float64, block ScenarioOptions) (PlatoonACCRow, error) {
			runPair := func(attempt int) (accPair, error) {
				seed := block.BaseSeed + int64(attempt)
				// Both arms must share the seed; a camera miss in either
				// voids the pair (a repeatable lab failure).
				p := accPair{valid: true}
				var err error
				if p.v2xCollided, p.v2xMin, err = platoonACCRun(seed, gap, 4, true); err == nil {
					p.accCollided, p.accMin, err = platoonACCRun(seed, gap, 4, false)
				}
				if errors.Is(err, errNoDetection) {
					return accPair{}, nil
				}
				if err != nil {
					return accPair{}, fmt.Errorf("experiments: platoon ACC gap %.1f: %w", gap, err)
				}
				return p, nil
			}
			pairs, err := campaign.Collect(block.engine(), runs, runs*maxAttemptFactor,
				runPair, func(p accPair) bool { return p.valid })
			var ex *campaign.ExhaustedError
			if errors.As(err, &ex) {
				return PlatoonACCRow{}, fmt.Errorf("experiments: platoon ACC gap %.1f: only %d/%d paired runs succeeded", gap, ex.Accepted, ex.Wanted)
			}
			if err != nil {
				return PlatoonACCRow{}, err
			}
			row := PlatoonACCRow{Gap: gap, Runs: runs, V2XMinGap: math.Inf(1), ACCMinGap: math.Inf(1)}
			for _, p := range pairs {
				if p.v2xCollided {
					row.V2XCollisions++
				}
				row.V2XMinGap = math.Min(row.V2XMinGap, p.v2xMin)
				if p.accCollided {
					row.ACCCollisions++
				}
				row.ACCMinGap = math.Min(row.ACCMinGap, p.accMin)
			}
			return row, nil
		})
}

// platoonACCRun executes one run. Returns whether any rear-end contact
// occurred and the minimum centre separation seen.
func platoonACCRun(seed int64, gap float64, members int, followersHaveOBU bool) (bool, float64, error) {
	sc, err := labScene(seed)
	if err != nil {
		return false, 0, err
	}
	kernel := sc.Kernel
	layout, hcfg := platoonSite(sc.Frame, 8)

	// Leader: the full vehicle with OBU, as in the core testbed.
	vcfg := vehicle.DefaultConfig(layout)
	vcfg.UseVision = false
	vcfg.StartArc = 8 // y = 0
	leader, leaderNode, err := sc.Vehicle(vcfg, stack.Config{Name: "leader", StationID: 2001})
	if err != nil {
		return false, 0, err
	}
	leaderStation := leaderNode.Station()

	// Followers: simplified longitudinal bodies with LiDAR ACC.
	params := physics.DefaultF110()
	followers := make([]*platoonFollower, members-1)
	bodies := []*physics.Body{leader.Body}
	for i := range followers {
		pos := geo.Point{X: 0, Y: -float64(i+1) * (gap + params.Length)}
		f := &platoonFollower{
			body:  physics.NewBody(params, pos, 0),
			lidar: sensors.NewLidar(sensors.DefaultHokuyo(), kernel.Rand(fmt.Sprintf("lidar.%d", i))),
		}
		f.body.SetCommandedSpeed(vcfg.CruiseSpeed)
		followers[i] = f
		bodies = append(bodies, f.body)
	}

	// Follower OBUs (V2X arm): each polls its own mailbox and cuts
	// power when the DENM arrives.
	if followersHaveOBU {
		for i, f := range followers {
			f := f
			node, err := sc.Node(stack.Config{
				Name:      fmt.Sprintf("follower%d", i),
				Role:      stack.RoleOBU,
				StationID: units.StationID(2100 + i),
				Mobility: sc.Moving(params.Length, params.Width, func() (geo.Point, float64, float64) {
					st := f.body.State()
					return st.Position, st.Speed, st.Heading
				}),
			})
			if err != nil {
				return false, 0, err
			}
			st := node.Station()
			st.Start()
			defer st.Stop()
			rng := kernel.Rand(fmt.Sprintf("follower.poll.%d", i))
			phase := time.Duration(rng.Int63n(int64(35 * time.Millisecond)))
			kernel.Every(phase, 35*time.Millisecond, func() {
				if f.stopped {
					return
				}
				node.RequestDENM(func(batch []openc2x.ReceivedDENM) {
					if len(batch) == 0 || f.stopped {
						return
					}
					f.stopped = true
					// Script dispatch + actuation latency, as on the
					// leader.
					kernel.ScheduleFn(12*time.Millisecond, f.body.CutPower)
				})
			})
		}
	}

	// Physics and ACC ticks for the followers.
	for i, f := range followers {
		f := f
		var pred *physics.Body
		if i == 0 {
			pred = leader.Body
		} else {
			pred = followers[i-1].body
		}
		kernel.Every(0, 2*time.Millisecond, func() { f.body.Step(0.002) })
		kernel.Every(0, 50*time.Millisecond, func() { f.accTick(pred, gap, vcfg.CruiseSpeed) })
	}

	// Road-side infrastructure watching the leader.
	rsuNode, err := sc.Node(stack.Config{Name: "rsu", Role: stack.RoleRSU, StationID: 1001, Mobility: sc.At(layout.Camera.Position)})
	if err != nil {
		return false, 0, err
	}
	rsu := rsuNode.Station()
	cam := sc.Edge(rsuNode, core.EdgeConfig{
		Camera: perception.CameraConfig{Camera: layout.Camera, Target: core.VehicleTarget(leader)},
		Hazard: hcfg,
	}).Camera

	leaderStation.Start()
	rsu.Start()
	leader.Start()
	cam.Start()
	defer leaderStation.Stop()
	defer rsu.Stop()
	defer leader.Stop()
	defer cam.Stop()

	// Observe inter-vehicle separations.
	minGap := math.Inf(1)
	kernel.Every(0, 5*time.Millisecond, func() {
		for i := 1; i < len(bodies); i++ {
			d := bodies[i-1].State().Position.DistanceTo(bodies[i].State().Position)
			if d < minGap {
				minGap = d
			}
		}
	})

	// Run until the whole platoon is at rest after the leader's stop,
	// or the horizon passes (detection failures are reported as
	// errNoDetection for the caller to retry).
	done := func() bool {
		if !leader.Halted() {
			return false
		}
		for _, f := range followers {
			if f.body.State().Speed > 1e-3 {
				return false
			}
		}
		return true
	}
	if !kernel.RunUntil(40*time.Second, done) && !leader.StopIssued() {
		return false, 0, errNoDetection
	}
	collided := minGap < params.Length*0.95
	return collided, minGap, nil
}

// accTick runs one ACC control step for a follower.
func (f *platoonFollower) accTick(pred *physics.Body, standstillGap, cruise float64) {
	if f.stopped && f.body.PowerCut() {
		return
	}
	st := f.body.State()
	scan := f.lidar.Scan(nil, st.Position, st.Heading, []sensors.Target{
		{Position: pred.State().Position, Radius: followerCarRadius},
	})
	r, seen := sensors.NearestAhead(scan, 0.1)
	if !seen {
		// Predecessor out of range: hold cruise.
		f.body.SetCommandedSpeed(cruise)
		f.hasRange = false
		return
	}
	gap := r.Range
	var rangeRate float64
	if f.hasRange {
		rangeRate = (gap - f.lastRange) / 0.05
	}
	f.lastRange = gap
	f.hasRange = true

	// Panic brake: too close.
	if gap < 0.30 {
		f.stopped = true
		f.body.CutPower()
		return
	}
	desired := standstillGap + accDesiredHeadway*st.Speed
	predSpeed := st.Speed + rangeRate
	if predSpeed < 0 {
		predSpeed = 0
	}
	cmd := predSpeed + 1.2*(gap-desired)
	if cmd > cruise {
		cmd = cruise
	}
	if cmd < 0 {
		cmd = 0
	}
	f.body.SetCommandedSpeed(cmd)
}

// FormatPlatoonACC renders the study.
func FormatPlatoonACC(rows []PlatoonACCRow) string {
	var b strings.Builder
	b.WriteString("EXT-6: platoon emergency braking — DENM to all members vs ACC-only followers\n")
	fmt.Fprintf(&b, "  %8s %18s %18s %12s %12s\n", "gap (m)", "V2X collisions", "ACC collisions", "V2X min gap", "ACC min gap")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %8.1f %15d/%d %15d/%d %10.2f m %10.2f m\n",
			r.Gap, r.V2XCollisions, r.Runs, r.ACCCollisions, r.Runs, r.V2XMinGap, r.ACCMinGap)
	}
	b.WriteString("Shape: the geo-broadcast DENM brakes all members within one poll period;\n")
	b.WriteString("sensor-only followers absorb the wave through the string and rear-end at\n")
	b.WriteString("short gaps.\n")
	return b.String()
}
