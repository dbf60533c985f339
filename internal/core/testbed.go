// Package core assembles the paper's contribution: the ETSI ITS
// Collision Avoidance System on the 1/10-scale robotic testbed. It
// wires together every component of Fig. 3 — road-side ZED camera,
// Object Detection Service and Hazard Advertisement Service on the
// edge node, the RSU and OBU OpenC2X stations over the 802.11p medium,
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

// RadioKind selects the warning delivery interface.
type RadioKind int

// Radio kinds.
const (
	// RadioITSG5 is the paper's IEEE 802.11p / ITS-G5 deployment.
	RadioITSG5 RadioKind = iota + 1
	// RadioCellular replaces the V2X link with a cellular profile
	// (the paper's planned 5G comparison).
	RadioCellular
	// RadioCV2XPC5 runs the C-V2X mode-4 sidelink: stations transmit
	// on autonomous SPS grants over the shared resource pool.
	RadioCV2XPC5
	// RadioCV2XUu routes every frame through the base-station/core hop
	// of the cellular profile, with fault injection and flight
	// recording threaded through (unlike the raw RadioCellular pipe).
	RadioCV2XUu
)

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
	// Radio selects ITS-G5 (default), a raw cellular pipe, C-V2X
	// sidelink (PC5), or the C-V2X infrastructure (Uu) path.
	Radio RadioKind
	// CellularProfile applies when Radio is RadioCellular or
	// RadioCV2XUu.
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
	// medium for channel-load studies.
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
	// Metrics receives every layer's instrumentation; nil creates a
	// private registry so each testbed is always fully instrumented.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records per-message causal spans across
	// every layer; nil disables tracing entirely.
	Tracer *tracing.Tracer
	// Flight is the black-box recorder threaded through every layer.
	// Unlike the tracer it is always on: nil creates a private recorder,
	// so each run carries its own bounded post-mortem rings.
	Flight *flight.Recorder
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
		c.Hazard.TriggerRetryBase = prev.TriggerRetryBase
		c.Hazard.TriggerRetryCap = prev.TriggerRetryCap
	}
	if c.DENMRepetitionInterval > 0 && c.Hazard.RepetitionInterval == 0 {
		c.Hazard.RepetitionInterval = c.DENMRepetitionInterval
	}
	if c.NTP == (clock.NTPModel{}) {
		c.NTP = clock.DefaultLANNTP()
	}
	if c.Radio == 0 {
		c.Radio = RadioITSG5
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.Flight == nil {
		c.Flight = flight.NewRecorder(0)
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
	cfg    Config
	Kernel *sim.Kernel
	Layout track.Layout

	Medium *radio.Medium
	// PC5 is the sidelink medium when Radio == RadioCV2XPC5.
	PC5 *radio.PC5Medium
	// Uu is the infrastructure link when Radio == RadioCV2XUu.
	Uu      *radio.CellularLink
	RSU     *stack.Station
	OBU     *stack.Station
	RSUNode *openc2x.SimNode
	OBUNode *openc2x.SimNode

	// Injector executes the configured fault plan (nil in fault-free
	// runs).
	Injector *faults.Injector

	// Metrics is the registry every layer of this testbed reports into.
	Metrics *metrics.Registry
	// Tracer records per-message spans when tracing is enabled (nil
	// otherwise).
	Tracer *tracing.Tracer
	// Flight is the always-on black-box recorder of this testbed.
	Flight *flight.Recorder

	// flVeh is the vehicle's flight hook (watchdog and actuation events).
	flVeh flight.Hook

	Vehicle   *vehicle.Vehicle
	Camera    *perception.RoadsideCamera
	ODS       *edge.ObjectDetectionService
	Hazard    *edge.HazardAdvertisementService
	EdgeClock *clock.NTPClock

	// Run is the step-timestamp record of the current scenario.
	Run *trace.Run

	// frameLog records camera frames for the Fig. 10 video analysis.
	frameLog []frameObservation
	// background channel-load stations.
	background []*stack.Station

	detectionPos geo.Point
	haltPos      geo.Point
	watchTicker  *sim.Ticker

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
		cfg:     cfg,
		Kernel:  sim.NewKernel(cfg.Seed),
		Layout:  cfg.Layout,
		Run:     trace.NewRun(),
		Metrics: cfg.Metrics,
		Tracer:  cfg.Tracer,
		Flight:  cfg.Flight,
	}
	tb.flVeh = cfg.Flight.Hook("vehicle")
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
		inj = faults.NewInjector(k, *cfg.Faults, cfg.Metrics, cfg.Tracer, cfg.Flight.Hook("faults"))
		tb.Injector = inj
	}

	// --- Vehicle ------------------------------------------------------
	veh, err := vehicle.New(k, cfg.Vehicle)
	if err != nil {
		return nil, fmt.Errorf("core: vehicle: %w", err)
	}
	tb.Vehicle = veh

	// --- Access layer -------------------------------------------------
	var rsuLink, obuLink stack.Link
	switch cfg.Radio {
	case RadioCellular:
		profile := cfg.CellularProfile
		if profile == (radio.CellularProfile{}) {
			profile = radio.Profile5GURLLC()
		}
		cell := radio.NewCellularLink(k, profile)
		rsuLink = cellularEndpoint{link: cell}
		obuLink = cellularEndpoint{link: cell}
	case RadioCV2XPC5:
		pc := radio.PC5Config{
			SPS:     cfg.SPS,
			Metrics: cfg.Metrics,
			Flight:  cfg.Flight,
		}
		if inj != nil {
			pc.Faults = inj
		}
		tb.PC5 = radio.NewPC5Medium(k, pc)
		camPos := cfg.Layout.Camera.Position
		rsuIf, err := tb.PC5.Attach("rsu", func() geo.Point { return camPos })
		if err != nil {
			return nil, fmt.Errorf("core: pc5 RSU: %w", err)
		}
		obuIf, err := tb.PC5.Attach("obu", veh.Mobility().Position)
		if err != nil {
			return nil, fmt.Errorf("core: pc5 OBU: %w", err)
		}
		rsuLink, obuLink = rsuIf, obuIf
	case RadioCV2XUu:
		profile := cfg.CellularProfile
		if profile == (radio.CellularProfile{}) {
			profile = radio.Profile5GURLLC()
		}
		cell := radio.NewCellularLink(k, profile)
		cell.Flight = cfg.Flight
		cell.Metrics = cfg.Metrics
		if inj != nil {
			cell.Faults = inj
		}
		tb.Uu = cell
		rsuEp, err := cell.AttachUu("rsu")
		if err != nil {
			return nil, fmt.Errorf("core: uu RSU: %w", err)
		}
		obuEp, err := cell.AttachUu("obu")
		if err != nil {
			return nil, fmt.Errorf("core: uu OBU: %w", err)
		}
		rsuLink, obuLink = rsuEp, obuEp
	default:
		mc := radio.MediumConfig{
			PathLoss:     cfg.PathLoss,
			Obstructions: cfg.Obstructions,
			Metrics:      cfg.Metrics,
			Tracer:       cfg.Tracer,
			Flight:       cfg.Flight,
		}
		if inj != nil {
			// Assign only a concrete injector: a typed-nil interface
			// would defeat the medium's Faults == nil fast path.
			mc.Faults = inj
		}
		tb.Medium = radio.NewMedium(k, mc)
	}

	// --- RSU ----------------------------------------------------------
	rsuPos := cfg.Layout.Camera.Position // RSU co-located with the edge rack (Fig. 9)
	rsu, err := stack.New(k, tb.Medium, stack.Config{
		Name:               "rsu",
		Role:               stack.RoleRSU,
		StationID:          RSUStationID,
		StationType:        units.StationTypeRoadSideUnit,
		Frame:              cfg.Layout.Frame,
		Mobility:           stack.StaticMobility{Point: rsuPos, Geo: cfg.Layout.Frame.ToGeodetic(rsuPos)},
		NTP:                cfg.NTP,
		DisableCAMTriggers: true,
		DENMTrafficClass:   cfg.DENMTrafficClass,
		Link:               rsuLink,
		Metrics:            cfg.Metrics,
		Tracer:             cfg.Tracer,
		Flight:             cfg.Flight,
	})
	if err != nil {
		return nil, fmt.Errorf("core: RSU: %w", err)
	}
	tb.RSU = rsu
	tb.RSUNode = openc2x.NewSimNode(k, rsu, cfg.HTTP)
	tb.RSUNode.MailboxCap = cfg.MailboxCap

	// --- OBU ----------------------------------------------------------
	obu, err := stack.New(k, tb.Medium, stack.Config{
		Name:        "obu",
		Role:        stack.RoleOBU,
		StationID:   OBUStationID,
		StationType: units.StationTypePassengerCar,
		Frame:       cfg.Layout.Frame,
		Mobility:    veh.Mobility(),
		NTP:         cfg.NTP,
		Link:        obuLink,
		Metrics:     cfg.Metrics,
		Tracer:      cfg.Tracer,
		Flight:      cfg.Flight,
	})
	if err != nil {
		return nil, fmt.Errorf("core: OBU: %w", err)
	}
	tb.OBU = obu
	tb.OBUNode = openc2x.NewSimNode(k, obu, cfg.HTTP)
	tb.OBUNode.MailboxCap = cfg.MailboxCap
	veh.AttachOBU(tb.OBUNode)

	if inj != nil {
		adapter := httpFaultAdapter{inj: inj}
		tb.RSUNode.Faults = adapter
		tb.OBUNode.Faults = adapter
		inj.ScheduleCrashes(tb.crashNode, tb.restartNode)
	}

	// --- Background channel load ---------------------------------------
	if cfg.BackgroundVehicles > 0 && tb.Medium != nil {
		if err := tb.addBackgroundVehicles(cfg.BackgroundVehicles); err != nil {
			return nil, err
		}
	}

	// --- Edge node ----------------------------------------------------
	tb.EdgeClock = clock.NewNTP(clock.SourceFunc(k.Now), cfg.NTP, k.Rand("clock.edge"))
	cam := perception.NewRoadsideCamera(k, perception.CameraConfig{
		Camera:      cfg.Layout.Camera,
		FramePeriod: cfg.CameraFramePeriod,
		Model:       cfg.DetectorModel,
		Target: func() (geo.Point, float64, perception.Dressing, bool) {
			st := veh.Body.State()
			return st.Position, st.Heading, veh.Dressing(), true
		},
	})
	tb.Camera = cam
	ods := edge.NewObjectDetectionService(k.Now)
	tb.ODS = ods
	if inj != nil {
		// Camera faults sit between the perception pipeline and the
		// Object Detection Service: a dropped frame never reaches the
		// edge, a dropped detection vanishes from its frame.
		cam.Subscribe(func(res perception.FrameResult) {
			now := k.Now()
			if inj.DropCameraFrame(now) {
				return
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
			ods.OnFrame(res)
		})
	} else {
		cam.Subscribe(ods.OnFrame)
	}
	hz := edge.NewHazardService(k, cfg.Hazard, tb.RSUNode, rsu.LDM, tb.EdgeClock)
	tb.Hazard = hz
	ods.Subscribe(hz.OnTrack)

	if cfg.Hazard.TriggerRetries > 0 {
		mRetry := cfg.Metrics.Counter("fault_trigger_retries_total")
		hz.OnTriggerRetry = func(int) { mRetry.Inc() }
	}
	if cfg.Vehicle.Watchdog.Enabled {
		mTrip := cfg.Metrics.Counter("fault_watchdog_trips_total")
		veh.OnWatchdogTrip = func(now time.Duration) {
			mTrip.Inc()
			tb.flVeh.Record(now, flight.WatchdogTrip, 0, 0, 0)
			if cfg.Tracer != nil {
				sp := cfg.Tracer.Start("fault.watchdog_trip", "faults", "vehicle", now)
				sp.End(now)
			}
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
		mob := &chatterMobility{point: pos, geoPt: tb.Layout.Frame.ToGeodetic(pos)}
		st, err := stack.New(tb.Kernel, tb.Medium, stack.Config{
			Name:        fmt.Sprintf("bg%02d", i),
			Role:        stack.RoleOBU,
			StationID:   units.StationID(9000 + i),
			StationType: units.StationTypePassengerCar,
			Frame:       tb.Layout.Frame,
			Mobility:    mob,
			NTP:         tb.cfg.NTP,
			Metrics:     tb.cfg.Metrics,
			Tracer:      tb.cfg.Tracer,
			Flight:      tb.cfg.Flight,
		})
		if err != nil {
			return fmt.Errorf("core: background station %d: %w", i, err)
		}
		tb.background = append(tb.background, st)
	}
	return nil
}

// cellularEndpoint adapts a shared CellularLink to the stack's Link
// interface per station.
type cellularEndpoint struct{ link *radio.CellularLink }

func (c cellularEndpoint) SendBroadcast(frame []byte) error { return c.link.SendBroadcast(frame) }
func (c cellularEndpoint) SetReceiver(fn func(frame []byte)) {
	c.link.Subscribe(fn)
}

// wireTimestamps installs the Fig. 4 step recorders.
func (tb *Testbed) wireTimestamps() {
	run := tb.Run
	// Step 2: the YOLO output shows the vehicle at the action point;
	// the hazard service decision fires on exactly that frame.
	tb.Hazard.OnDecision = func(_ edge.TrackedObject, _ perception.FrameResult, _ time.Duration) {
		run.Stamp(trace.StepDetection, tb.EdgeClock.Now())
		tb.detectionPos = tb.Vehicle.Body.State().Position
		if tb.Tracer != nil && tb.chainRoot == nil {
			// Root the end-to-end trace at the step-2 stamp so its extent
			// reconciles exactly with the Table II 2→5 total; the hazard
			// service's TriggerDENM finds it via the chain key.
			at, _ := run.At(trace.StepDetection)
			tb.chainRoot = tb.Tracer.StartChild(nil, "denm.chain", "core", "edge", at)
			tb.Tracer.Bind(tracing.KeyChain, tb.chainRoot)
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
		tb.flVeh.Record(t, flight.Actuation, flight.ActStopCommand, 0, 0)
		if tb.Tracer != nil {
			parent := tb.Tracer.Find(tracing.KeyPoll("obu"))
			if parent == nil {
				parent = tb.chainRoot
			}
			sp := tb.Tracer.StartChild(parent, "vehicle.actuation", "vehicle", tb.cfg.Vehicle.Name, parent.EndTime())
			sp.End(tb.Kernel.Now())
			if tb.chainRoot != nil {
				at, _ := run.At(trace.StepActuatorCommand)
				tb.chainRoot.End(at)
			}
		}
	}
	// Step 6: the vehicle halts (true/video time).
	tb.Vehicle.OnHalt = func(t time.Duration) {
		run.Stamp(trace.StepHalt, t)
		tb.flVeh.Record(t, flight.Actuation, flight.ActHalt, 0, 0)
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
