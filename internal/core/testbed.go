// Package core assembles the paper's contribution: the ETSI ITS
// Collision Avoidance System on the 1/10-scale robotic testbed. It
// wires together every component of Fig. 3 — road-side ZED camera,
// Object Detection Service and Hazard Advertisement Service on the
// edge node, the RSU and OBU OpenC2X stations over the radio backend,
// and the autonomous line-following vehicle — and instruments the
// Fig. 4 sequence with the six step timestamps of the evaluation.
package core

import (
	"fmt"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/edge"
	"itsbed/internal/faults"
	"itsbed/internal/flight"
	"itsbed/internal/geo"
	"itsbed/internal/its/facilities/ca"
	"itsbed/internal/its/messages"
	"itsbed/internal/metrics"
	"itsbed/internal/openc2x"
	"itsbed/internal/perception"
	"itsbed/internal/radio"
	"itsbed/internal/sim"
	"itsbed/internal/stack"
	"itsbed/internal/trace"
	"itsbed/internal/tracing"
	"itsbed/internal/track"
	"itsbed/internal/units"
	"itsbed/internal/vehicle"
)

// RadioKind selects the radio backend every station attaches to. Its
// values are the -radio flag names; "" selects ITS-G5.
type RadioKind string

// Radio kinds.
const (
	// RadioITSG5 is the paper's IEEE 802.11p / ITS-G5 deployment.
	RadioITSG5 RadioKind = "its-g5"
	// RadioCV2XPC5 runs the C-V2X mode-4 sidelink: stations transmit
	// on autonomous SPS grants over the shared resource pool.
	RadioCV2XPC5 RadioKind = "cv2x-pc5"
	// RadioCV2XUu routes every frame through the base-station/core hop
	// of the cellular profile (the paper's planned 5G comparison).
	RadioCV2XUu RadioKind = "cv2x-uu"
)

// RadioKinds lists every radio kind in bake-off order.
func RadioKinds() []RadioKind {
	return []RadioKind{RadioITSG5, RadioCV2XPC5, RadioCV2XUu}
}

// ParseRadio maps a -radio flag value onto a RadioKind; the empty
// string selects ITS-G5.
func ParseRadio(s string) (RadioKind, error) {
	if s == "" {
		return RadioITSG5, nil
	}
	for _, k := range RadioKinds() {
		if RadioKind(s) == k {
			return k, nil
		}
	}
	return "", fmt.Errorf("core: unknown radio backend %q (want its-g5, cv2x-pc5 or cv2x-uu)", s)
}

// Station IDs of the fixed deployment.
const (
	RSUStationID units.StationID = 1001
	OBUStationID units.StationID = 2001
)

// Config parameterises a testbed instance.
type Config struct {
	// Seed drives every random stream of the run.
	Seed int64
	// Layout of the floor; zero value selects track.PaperLab().
	Layout track.Layout
	// Vehicle configuration; zero value selects
	// vehicle.DefaultConfig(Layout).
	Vehicle vehicle.Config
	// CameraFramePeriod of the road-side pipeline (default 250 ms —
	// the 4 FPS of the paper).
	CameraFramePeriod time.Duration
	// DetectorModel of the road-side YOLO stand-in.
	DetectorModel perception.Model
	// Hazard configuration; zero value selects
	// edge.DefaultHazardConfig at the layout's action point.
	Hazard edge.HazardConfig
	// HTTP latencies of the OpenC2X API nodes.
	HTTP openc2x.Latencies
	// MailboxCap, when positive, bounds both OpenC2X mailboxes with
	// drop-oldest eviction. Zero keeps them unbounded (the historical
	// behaviour every deterministic campaign golden depends on).
	MailboxCap int
	// NTP error model for all platforms.
	NTP clock.NTPModel
	// Radio selects ITS-G5 (default), C-V2X sidelink (PC5), or the
	// C-V2X infrastructure (Uu) path.
	Radio RadioKind
	// CellularProfile applies when Radio is RadioCV2XUu; the zero
	// value selects radio.Profile5GURLLC.
	CellularProfile radio.CellularProfile
	// SPS parameterises the mode-4 scheduler when Radio ==
	// RadioCV2XPC5; the zero value selects the standard defaults.
	SPS radio.SPSConfig
	// PathLoss of the 802.11p medium; zero selects the indoor default.
	PathLoss radio.PathLossModel
	// Obstructions adds per-link penetration loss (walls); nil leaves
	// the lab open.
	Obstructions radio.ObstructionModel
	// BackgroundVehicles adds that many CAM-chattering stations to the
	// radio backend for channel-load studies.
	BackgroundVehicles int
	// DENMTrafficClass demotes DENMs from the default highest EDCA
	// priority (0) for the channel-access ablation.
	DENMTrafficClass uint8
	// DENMRepetitionInterval enables DEN repetition at the RSU (zero:
	// single shot, as the paper's testbed).
	DENMRepetitionInterval time.Duration
	// Faults, when non-nil and non-empty, injects the plan's
	// deterministic fault schedule into the run: radio blackouts and
	// noise bursts, per-link burst loss, camera dropouts, OpenC2X API
	// faults, and node crash/restart.
	Faults *faults.Plan
	// Sink receives every layer's instrumentation. A nil Sink.Metrics
	// creates a private registry, so each testbed is always fully
	// instrumented; a nil Sink.Flight likewise creates a private
	// black-box recorder, so each run carries its own bounded
	// post-mortem rings. Sink.Tracer, when non-nil, records
	// per-message causal spans across every layer; nil disables
	// tracing entirely.
	Sink trace.Sink
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Layout.Line == nil {
		c.Layout = track.PaperLab()
	}
	if c.Vehicle.Layout.Line == nil {
		vc := c.Vehicle
		base := vehicle.DefaultConfig(c.Layout)
		if vc.Name != "" {
			base.Name = vc.Name
		}
		// The watchdog rides along even when the rest of the vehicle
		// config is defaulted (resilience runs set only this field).
		base.Watchdog = vc.Watchdog
		c.Vehicle = base
	}
	if c.CameraFramePeriod <= 0 {
		c.CameraFramePeriod = 250 * time.Millisecond
	}
	if c.DetectorModel == (perception.Model{}) {
		c.DetectorModel = perception.DefaultModel()
	}
	if c.Hazard.ActionPointDistance == 0 {
		prev := c.Hazard
		actionPoint := c.actionPointGeo()
		c.Hazard = edge.DefaultHazardConfig(actionPoint)
		c.Hazard.ActionPointDistance = c.Layout.ActionPointDistance
		// Retry policy survives the default fill, like the watchdog.
		c.Hazard.TriggerRetries = prev.TriggerRetries
	}
	if c.DENMRepetitionInterval > 0 && c.Hazard.RepetitionInterval == 0 {
		c.Hazard.RepetitionInterval = c.DENMRepetitionInterval
	}
	if c.NTP == (clock.NTPModel{}) {
		c.NTP = clock.DefaultLANNTP()
	}
	if c.Radio == "" {
		c.Radio = RadioITSG5
	}
	if c.Sink.Metrics == nil {
		c.Sink.Metrics = metrics.NewRegistry()
	}
	if c.Sink.Flight == nil {
		c.Sink.Flight = flight.NewRecorder(0)
	}
	return c
}

// actionPointGeo computes the geodetic position of the action point.
func (c Config) actionPointGeo() geo.LatLon {
	if arc, ok := c.Layout.ActionPointArc(); ok {
		return c.Layout.Frame.ToGeodetic(c.Layout.Line.PointAt(arc))
	}
	return c.Layout.Frame.Origin()
}

// Testbed is one assembled instance of the collision avoidance system.
type Testbed struct {
	// Scene holds the kernel, the radio backend every station attaches
	// to (a *radio.Medium, *radio.PC5Medium or *radio.CellularLink per
	// Config.Radio) and the Sink every layer reports into: the metrics
	// registry, the tracer (nil unless tracing is enabled) and the
	// always-on flight recorder.
	Scene
	cfg    Config
	Layout track.Layout

	RSU     *stack.Station
	OBU     *stack.Station
	RSUNode *openc2x.SimNode
	OBUNode *openc2x.SimNode

	// Injector executes the configured fault plan (nil in fault-free
	// runs).
	Injector *faults.Injector

	// veh records the vehicle's watchdog and actuation events.
	veh trace.Probe

	Vehicle *vehicle.Vehicle
	// Edge is the road-side camera → ODS → hazard pipeline.
	*Edge

	// Run is the step-timestamp record of the current scenario.
	Run *trace.Run

	// frameLog records camera frames for the Fig. 10 video analysis.
	frameLog []frameObservation
	// background channel-load stations.
	background []*stack.Station

	detectionPos geo.Point
	haltPos      geo.Point
	// ended is set by observeStep once the approach is over without a
	// halt.
	ended bool

	// chainRoot is the denm.chain root span of the current scenario,
	// opened at the hazard decision and closed at the actuator command.
	chainRoot *tracing.Span
}

type frameObservation struct {
	captureTime   time.Duration
	truthDistance float64
	stopped       bool
}

// New assembles a testbed.
func New(cfg Config) (*Testbed, error) {
	cfg = cfg.withDefaults()
	tb := &Testbed{
		Scene: Scene{
			Kernel:     sim.NewKernel(cfg.Seed),
			Frame:      cfg.Layout.Frame,
			NTP:        cfg.NTP,
			HTTP:       cfg.HTTP,
			MailboxCap: cfg.MailboxCap,
			Sink:       cfg.Sink,
		},
		cfg:    cfg,
		Layout: cfg.Layout,
		Run:    trace.NewRun(),
	}
	tb.veh = cfg.Sink.Probe("vehicle")
	k := tb.Kernel

	// --- Fault injection ----------------------------------------------
	// The injector exists only when a plan actually injects something;
	// fault-free runs take exactly the code paths (and RNG draws) they
	// took before the subsystem existed.
	var inj *faults.Injector
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("core: fault plan: %w", err)
		}
		inj = faults.NewInjector(k, *cfg.Faults, cfg.Sink)
		tb.Injector = inj
	}

	// --- Access layer -------------------------------------------------
	// Hand the backends only a concrete injector: a typed-nil interface
	// would defeat their Faults == nil fast paths.
	var faultModel radio.FaultModel
	if inj != nil {
		faultModel = inj
	}
	var err error
	if tb.Backend, err = tb.NewBackend(cfg, faultModel); err != nil {
		return nil, err
	}

	// --- RSU (co-located with the edge rack, Fig. 9), vehicle and OBU --
	tb.RSUNode, err = tb.Node(stack.Config{
		Name:             "rsu",
		Role:             stack.RoleRSU,
		StationID:        RSUStationID,
		Mobility:         tb.At(cfg.Layout.Camera.Position),
		DENMTrafficClass: cfg.DENMTrafficClass,
	})
	if err != nil {
		return nil, err
	}
	tb.RSU = tb.RSUNode.Station()
	veh, obuNode, err := tb.Scene.Vehicle(cfg.Vehicle, stack.Config{Name: "obu", StationID: OBUStationID})
	if err != nil {
		return nil, err
	}
	tb.Vehicle, tb.OBUNode, tb.OBU = veh, obuNode, obuNode.Station()

	if inj != nil {
		adapter := httpFaultAdapter{inj: inj}
		tb.RSUNode.Faults = adapter
		tb.OBUNode.Faults = adapter
		inj.ScheduleCrashes(tb.crashNode, tb.restartNode)
	}

	// --- Background channel load ---------------------------------------
	if cfg.BackgroundVehicles > 0 {
		if err := tb.addBackgroundVehicles(cfg.BackgroundVehicles); err != nil {
			return nil, err
		}
	}

	// --- Edge node ----------------------------------------------------
	ec := EdgeConfig{
		Camera: perception.CameraConfig{
			Camera:      cfg.Layout.Camera,
			FramePeriod: cfg.CameraFramePeriod,
			Model:       cfg.DetectorModel,
			Target:      VehicleTarget(veh),
		},
		Hazard: cfg.Hazard,
	}
	if inj != nil {
		// Camera faults sit between the perception pipeline and the
		// Object Detection Service: a dropped frame never reaches the
		// edge, a dropped detection vanishes from its frame.
		ec.Filter = func(res perception.FrameResult) (perception.FrameResult, bool) {
			now := k.Now()
			if inj.DropCameraFrame(now) {
				return res, false
			}
			if len(res.Detections) > 0 {
				kept := make([]perception.Detection, 0, len(res.Detections))
				for _, det := range res.Detections {
					if inj.DropDetection(now) {
						continue
					}
					kept = append(kept, det)
				}
				res.Detections = kept
			}
			return res, true
		}
	}
	tb.Edge = tb.Scene.Edge(tb.RSUNode, ec)

	if cfg.Hazard.TriggerRetries > 0 {
		mRetry := cfg.Sink.Metrics.Counter("fault_trigger_retries_total")
		tb.Hazard.OnTriggerRetry = func(int) { mRetry.Inc() }
	}
	if cfg.Vehicle.Watchdog {
		mTrip := cfg.Sink.Metrics.Counter("fault_watchdog_trips_total")
		veh.OnWatchdogTrip = func(now time.Duration) {
			mTrip.Inc()
			tb.veh.Record(now, flight.WatchdogTrip, 0, 0, 0)
			tb.veh.Start("fault.watchdog_trip", "faults", now).End(now)
		}
	}

	tb.wireTimestamps()
	return tb, nil
}

// httpFaultAdapter bridges the injector's verdicts to the openc2x
// fault-model interface (the two enums share values by construction).
type httpFaultAdapter struct{ inj *faults.Injector }

func (a httpFaultAdapter) TriggerVerdict(now time.Duration) openc2x.HTTPVerdict {
	return openc2x.HTTPVerdict(a.inj.TriggerVerdict(now))
}

func (a httpFaultAdapter) PollVerdict(now time.Duration) openc2x.HTTPVerdict {
	return openc2x.HTTPVerdict(a.inj.PollVerdict(now))
}

// crashNode executes a planned node crash: the station process dies
// and its OpenC2X mailbox is lost.
func (tb *Testbed) crashNode(node string) {
	switch node {
	case faults.NodeRSU:
		tb.RSU.Crash()
		tb.RSUNode.DropMailbox("crash")
	case faults.NodeOBU:
		tb.OBU.Crash()
		tb.OBUNode.DropMailbox("crash")
	}
}

// restartNode brings a crashed node back with blank volatile state.
func (tb *Testbed) restartNode(node string) {
	switch node {
	case faults.NodeRSU:
		tb.RSU.Restart()
	case faults.NodeOBU:
		tb.OBU.Restart()
	}
}

// chatterMobility is a static station whose reported speed jitters
// enough to fire the CAM dynamics trigger on every check, producing
// the standard's maximum 10 Hz CAM rate — the channel-load generator.
type chatterMobility struct {
	point geo.Point
	geoPt geo.LatLon
	seq   float64
}

func (c *chatterMobility) Position() geo.Point { return c.point }

func (c *chatterMobility) VehicleState() ca.VehicleState {
	// Alternate the reported speed by more than the 0.5 m/s trigger.
	c.seq += 1
	speed := 2.0
	if int(c.seq)%2 == 0 {
		speed = 3.0
	}
	return ca.VehicleState{Position: c.geoPt, SpeedMS: speed, Length: 0.53, Width: 0.29}
}

// addBackgroundVehicles attaches n CAM-chattering stations spread
// around the lab perimeter.
func (tb *Testbed) addBackgroundVehicles(n int) error {
	rng := tb.Kernel.Rand("core.background")
	for i := 0; i < n; i++ {
		pos := geo.Point{
			X: rng.Float64()*8 - 4,
			Y: rng.Float64() * 8,
		}
		st, err := tb.Station(stack.Config{
			Name:      fmt.Sprintf("bg%02d", i),
			Role:      stack.RoleOBU,
			StationID: units.StationID(9000 + i),
			Mobility:  &chatterMobility{point: pos, geoPt: tb.Frame.ToGeodetic(pos)},
		})
		if err != nil {
			return err
		}
		tb.background = append(tb.background, st)
	}
	return nil
}

// wireTimestamps installs the Fig. 4 step recorders.
func (tb *Testbed) wireTimestamps() {
	run := tb.Run
	// Step 2: the YOLO output shows the vehicle at the action point;
	// the hazard service decision fires on exactly that frame.
	tb.Hazard.OnDecision = func(_ edge.TrackedObject, _ perception.FrameResult, _ time.Duration) {
		run.Stamp(trace.StepDetection, tb.Clock.Now())
		tb.detectionPos = tb.Vehicle.Body.State().Position
		if tb.chainRoot == nil {
			// Root the end-to-end trace at the step-2 stamp so its extent
			// reconciles exactly with the Table II 2→5 total; the hazard
			// service's TriggerDENM finds it via the chain key.
			at, _ := run.At(trace.StepDetection)
			tb.chainRoot = tb.Sink.Tracer.StartChild(nil, "denm.chain", "core", "edge", at)
			tb.Sink.Tracer.Bind(tracing.KeyChain, tb.chainRoot)
		}
	}
	// Step 3: the RSU registers the time of sending.
	tb.RSU.DEN.OnTransmit = func(_ *messages.DENM) {
		run.Stamp(trace.StepRSUSend, tb.RSU.Clock.Now())
	}
	// Step 4: the OBU registers the time of reception. The SimNode
	// already chained the mailbox handler over station.OnDENM; wrap it
	// once more so both run.
	prev := tb.OBU.OnDENM
	tb.OBU.OnDENM = func(d *messages.DENM) {
		run.Stamp(trace.StepOBUReceive, tb.OBU.Clock.Now())
		if prev != nil {
			prev(d)
		}
	}
	// Step 5: the vehicle ECU registers the actuator command.
	tb.Vehicle.OnStopCommand = func(t time.Duration) {
		run.Stamp(trace.StepActuatorCommand, t)
		tb.veh.Record(t, flight.Actuation, flight.ActStopCommand, 0, 0)
		parent := tb.Sink.Tracer.Find(tracing.KeyPoll("obu"))
		if parent == nil {
			parent = tb.chainRoot
		}
		sp := tb.Sink.Tracer.StartChild(parent, "vehicle.actuation", "vehicle", tb.cfg.Vehicle.Name, parent.EndTime())
		sp.End(tb.Kernel.Now())
		at, _ := run.At(trace.StepActuatorCommand)
		tb.chainRoot.End(at)
	}
	// Step 6: the vehicle halts (true/video time).
	tb.Vehicle.OnHalt = func(t time.Duration) {
		run.Stamp(trace.StepHalt, t)
		tb.veh.Record(t, flight.Actuation, flight.ActHalt, 0, 0)
		tb.haltPos = tb.Vehicle.Body.State().Position
	}
}

// VideoFramePeriod is the road-side recording rate used for the
// Fig. 10 analysis. The full-rate recording runs at 25 fps even though
// YOLO only processes ~4 frames per second.
const VideoFramePeriod = 40 * time.Millisecond

// startVideoRecorder logs ground truth at the recording rate.
func (tb *Testbed) startVideoRecorder() *sim.Ticker {
	return tb.Kernel.Every(0, VideoFramePeriod, func() {
		tb.frameLog = append(tb.frameLog, frameObservation{
			captureTime:   tb.Kernel.Now(),
			truthDistance: tb.Layout.Camera.DistanceTo(tb.Vehicle.Body.State().Position),
			stopped:       tb.Vehicle.Body.Stopped() && tb.Vehicle.StopIssued(),
		})
	})
}
