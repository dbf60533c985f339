package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"itsbed/internal/campaign"
	"itsbed/internal/core"
	"itsbed/internal/edge"
	"itsbed/internal/geo"
	"itsbed/internal/its/facilities/den"
	"itsbed/internal/its/messages"
	"itsbed/internal/openc2x"
	"itsbed/internal/perception"
	"itsbed/internal/stack"
	"itsbed/internal/units"
	"itsbed/internal/vehicle"
)

// errNoDetection marks a run whose road-side camera missed every
// eligible frame — a repeatable lab failure, not a harness error.
var errNoDetection = errors.New("hazard never detected")

// PlatoonMode selects how the warning reaches the platoon (the
// paper's future-work multi-technology arrangement).
type PlatoonMode int

// Platoon delivery modes.
const (
	// PlatoonITSG5 geo-broadcasts the DENM over 802.11p to every
	// member directly.
	PlatoonITSG5 PlatoonMode = iota + 1
	// PlatoonHybrid delivers the DENM to the leader over a 5G link;
	// the leader re-originates it over 802.11p for the followers.
	PlatoonHybrid
)

// String implements fmt.Stringer.
func (m PlatoonMode) String() string {
	switch m {
	case PlatoonITSG5:
		return "all ITS-G5"
	case PlatoonHybrid:
		return "5G leader + ITS-G5 intra-platoon"
	default:
		return "unknown"
	}
}

// PlatoonMemberResult is one member's detection-to-action delay.
type PlatoonMemberResult struct {
	Member int // 0 = leader
	// DetectionToAction from the hazard decision to the member's stop
	// command.
	DetectionToAction time.Duration
	Stopped           bool
}

// PlatoonResult is one platoon run.
type PlatoonResult struct {
	Mode    PlatoonMode
	Members []PlatoonMemberResult
	// WholePlatoon is the worst member delay (the paper's
	// "detection-to-action delay for the entire platoon").
	WholePlatoon time.Duration
}

// Platoon runs the emergency-brake scenario for a platoon of size n
// in the given mode (future work §V).
func Platoon(seed int64, n int, mode PlatoonMode) (PlatoonResult, error) {
	if n < 2 {
		n = 3
	}
	out := PlatoonResult{Mode: mode}
	sc, err := labScene(seed)
	if err != nil {
		return out, err
	}
	kernel := sc.Kernel
	layout, hcfg := platoonSite(sc.Frame, 6)

	// Vehicles: leader at arc 6 (y = 0), followers 0.9 m apart behind.
	const gap = 0.9
	vehicles := make([]*vehicle.Vehicle, n)
	nodes := make([]*openc2x.SimNode, n)
	stopAt := make([]time.Duration, n)
	stopped := make([]bool, n)
	for i := 0; i < n; i++ {
		vcfg := vehicle.DefaultConfig(layout)
		vcfg.Name = fmt.Sprintf("member%d", i)
		vcfg.StartArc = 6 - float64(i)*gap
		vcfg.UseVision = false
		v, node, err := sc.Vehicle(vcfg, stack.Config{Name: vcfg.Name, StationID: units.StationID(3000 + i)})
		if err != nil {
			return out, err
		}
		vehicles[i], nodes[i] = v, node
		i := i
		v.OnStopCommand = func(t time.Duration) {
			if !stopped[i] {
				stopped[i] = true
				stopAt[i] = kernel.Now()
			}
		}
		node.Station().Start()
		v.Start()
	}

	// Road-side infrastructure watching the leader; in hybrid mode the
	// RSU sits on a 5G link instead of the 802.11p medium.
	rsuScene := sc
	if mode == PlatoonHybrid {
		if rsuScene.Backend, err = sc.NewBackend(core.Config{Radio: core.RadioCV2XUu}, nil); err != nil {
			return out, err
		}
	}
	rsuNode, err := rsuScene.Node(stack.Config{Name: "rsu", Role: stack.RoleRSU, StationID: 1001, Mobility: sc.At(layout.Camera.Position)})
	if err != nil {
		return out, err
	}
	rsuNode.Station().Start()

	if mode == PlatoonHybrid {
		// The leader's OBU listens on the cellular link as well; on a
		// DENM it re-originates the warning over 802.11p for the
		// followers (the multi-technology arrangement).
		leaderStation := nodes[0].Station()
		prev := leaderStation.OnDENM
		leaderStation.OnDENM = func(d *messages.DENM) {
			if prev != nil {
				prev(d)
			}
			if d.Situation == nil {
				return
			}
			_, _ = leaderStation.DEN.Trigger(den.EventRequest{
				EventType: d.Situation.EventType,
				Position: geo.LatLon{
					Lat: d.Management.EventPosition.Latitude.Degrees(),
					Lon: d.Management.EventPosition.Longitude.Degrees(),
				},
				Quality:         d.Situation.InformationQuality,
				RelevanceRadius: 100,
			})
		}
		// The leader's receive-only Uu endpoint feeds the cellular
		// downlink into its station; it keeps transmitting on 802.11p.
		ep, err := rsuScene.Backend.AttachStation(leaderStation.Name(), nil)
		if err != nil {
			return out, fmt.Errorf("experiments: platoon leader uu: %w", err)
		}
		ep.SetReceiver(leaderStation.OnFrame)
	}

	ed := sc.Edge(rsuNode, core.EdgeConfig{
		Camera: perception.CameraConfig{Camera: layout.Camera, Target: core.VehicleTarget(vehicles[0])},
		Hazard: hcfg,
	})
	var detectionAt time.Duration
	detected := false
	ed.Hazard.OnDecision = func(_ edge.TrackedObject, _ perception.FrameResult, t time.Duration) {
		if !detected {
			detected = true
			detectionAt = t
		}
	}
	ed.Camera.Start()

	allStopped := func() bool {
		for i := range vehicles {
			if !vehicles[i].Halted() {
				return false
			}
		}
		return true
	}
	kernel.RunUntil(40*time.Second, allStopped)
	if !detected {
		return out, fmt.Errorf("experiments: platoon run: %w", errNoDetection)
	}
	for i := range vehicles {
		m := PlatoonMemberResult{Member: i, Stopped: stopped[i]}
		if stopped[i] {
			m.DetectionToAction = stopAt[i] - detectionAt
			if m.DetectionToAction > out.WholePlatoon {
				out.WholePlatoon = m.DetectionToAction
			}
		}
		out.Members = append(out.Members, m)
	}
	return out, nil
}

// PlatoonStudyResult aggregates whole-platoon delays over seeds.
type PlatoonStudyResult struct {
	Mode    PlatoonMode
	Members int
	Runs    int
	// WholePlatoonMS are the per-run worst-member delays.
	WholePlatoonMS []float64
	// LeaderMS are the per-run leader delays.
	LeaderMS []float64
}

// PlatoonStudy repeats the platoon scenario over seeds; the poll-loop
// quantisation means single runs can mask link-latency differences.
// Attempt i uses seed baseSeed+37i; an attempt whose camera missed
// every eligible frame is not accepted and the next one is run, as a
// lab operator would. runs <= 0 selects 8, the count EXPERIMENTS.md
// reports. workers bounds the concurrent attempts (<= 0 selects
// runtime.NumCPU()); the result is identical for any value.
func PlatoonStudy(baseSeed int64, runs, members int, mode PlatoonMode, workers int) (PlatoonStudyResult, error) {
	if runs <= 0 {
		runs = 8
	}
	results, err := collect(campaign.Options{Workers: workers}, runs, "platoon runs",
		func(i int) (PlatoonResult, error) {
			res, err := Platoon(baseSeed+int64(i)*37, members, mode)
			if errors.Is(err, errNoDetection) {
				return PlatoonResult{}, nil
			}
			return res, err
		}, func(r PlatoonResult) bool { return r.Members != nil })
	if err != nil {
		return PlatoonStudyResult{}, err
	}
	out := PlatoonStudyResult{Mode: mode, Members: members, Runs: runs}
	for _, res := range results {
		out.WholePlatoonMS = append(out.WholePlatoonMS, ms(res.WholePlatoon))
		if res.Members[0].Stopped {
			out.LeaderMS = append(out.LeaderMS, ms(res.Members[0].DetectionToAction))
		}
	}
	return out, nil
}

// Format renders the study.
func (p PlatoonStudyResult) Format() string {
	var b strings.Builder
	lead := avg(p.LeaderMS)
	whole := avg(p.WholePlatoonMS)
	fmt.Fprintf(&b, "EXT-3: Platoon study (%d members, %d runs, %s): leader avg %.1f ms, whole platoon avg %.1f ms\n",
		p.Members, p.Runs, p.Mode, lead, whole)
	return b.String()
}

func avg(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Format renders the platoon run.
func (p PlatoonResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXT-3: Platoon detection-to-action (%d members, %s)\n", len(p.Members), p.Mode)
	for _, m := range p.Members {
		role := "follower"
		if m.Member == 0 {
			role = "leader"
		}
		if m.Stopped {
			fmt.Fprintf(&b, "  member %d (%s): %.1f ms\n", m.Member, role, ms(m.DetectionToAction))
		} else {
			fmt.Fprintf(&b, "  member %d (%s): did not stop\n", m.Member, role)
		}
	}
	fmt.Fprintf(&b, "  whole platoon: %.1f ms\n", ms(p.WholePlatoon))
	return b.String()
}
