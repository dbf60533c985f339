package core

import (
	"fmt"

	"itsbed/internal/clock"
	"itsbed/internal/edge"
	"itsbed/internal/geo"
	"itsbed/internal/its/facilities/ca"
	"itsbed/internal/openc2x"
	"itsbed/internal/perception"
	"itsbed/internal/radio"
	"itsbed/internal/sim"
	"itsbed/internal/stack"
	"itsbed/internal/trace"
	"itsbed/internal/units"
	"itsbed/internal/vehicle"
)

// Scene is one scenario's Fig. 3 deployment under assembly: the
// kernel, the radio backend its stations attach to, and what they all
// share. The testbed and every experiment engine build their radio,
// stations and camera → ODS → hazard edge through it. Copy a Scene and
// swap Backend to attach some stations to a second radio.
type Scene struct {
	Kernel  *sim.Kernel
	Backend radio.Backend
	Frame   *geo.Frame
	NTP     clock.NTPModel
	// HTTP and MailboxCap configure every OpenC2X node.
	HTTP       openc2x.Latencies
	MailboxCap int
	// Sink is the instrumentation threaded into the backend and every
	// station; a nil part is off.
	Sink trace.Sink
}

// NewBackend builds the radio c.Radio selects, shaped by c's radio
// fields and screened by faults when non-nil.
func (s Scene) NewBackend(c Config, faults radio.FaultModel) (radio.Backend, error) {
	switch c.Radio {
	case RadioITSG5:
		return radio.NewMedium(s.Kernel, radio.MediumConfig{
			PathLoss:     c.PathLoss,
			Obstructions: c.Obstructions,
			Faults:       faults,
			Sink:         s.Sink,
		}), nil
	case RadioCV2XPC5:
		return radio.NewPC5Medium(s.Kernel, radio.PC5Config{
			SPS:    c.SPS,
			Faults: faults,
			Sink:   s.Sink,
		}), nil
	case RadioCV2XUu:
		profile := c.CellularProfile
		if profile == (radio.CellularProfile{}) {
			profile = radio.Profile5GURLLC()
		}
		cell := radio.NewCellularLink(s.Kernel, profile)
		cell.Faults = faults
		cell.Sink = s.Sink
		return cell, nil
	}
	return nil, fmt.Errorf("core: unknown radio kind %q", c.Radio)
}

// Station attaches a station to the backend. The role fixes the
// station type and, for an RSU, the 1 Hz CAM policy; the scene
// supplies frame, NTP model and instrumentation.
func (s Scene) Station(cfg stack.Config) (*stack.Station, error) {
	cfg.StationType = units.StationTypePassengerCar
	if cfg.Role == stack.RoleRSU {
		cfg.StationType = units.StationTypeRoadSideUnit
		cfg.DisableCAMTriggers = true
	}
	cfg.Frame, cfg.NTP = s.Frame, s.NTP
	cfg.Sink = s.Sink
	st, err := stack.New(s.Kernel, s.Backend, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %s %s: %w", cfg.Role, cfg.Name, err)
	}
	return st, nil
}

// Node attaches a station fronted by an OpenC2X API node.
func (s Scene) Node(cfg stack.Config) (*openc2x.SimNode, error) {
	st, err := s.Station(cfg)
	if err != nil {
		return nil, err
	}
	n := openc2x.NewSimNode(s.Kernel, st, s.HTTP)
	n.MailboxCap = s.MailboxCap
	return n, nil
}

// Vehicle builds a robotic vehicle polling its own OBU node, the OBU
// station obu moving with it.
func (s Scene) Vehicle(vcfg vehicle.Config, obu stack.Config) (*vehicle.Vehicle, *openc2x.SimNode, error) {
	v, err := vehicle.New(s.Kernel, vcfg)
	if err != nil {
		return nil, nil, fmt.Errorf("core: vehicle %s: %w", vcfg.Name, err)
	}
	obu.Role, obu.Mobility = stack.RoleOBU, v.Mobility()
	n, err := s.Node(obu)
	if err != nil {
		return nil, nil, err
	}
	v.AttachOBU(n)
	return v, n, nil
}

// At is the mobility of road-side equipment fixed at p.
func (s Scene) At(p geo.Point) stack.StaticMobility {
	return stack.StaticMobility{Point: p, Geo: s.Frame.ToGeodetic(p)}
}

// Moving is the mobility of a station on a bare kinematic model: pose
// reports its position, speed and heading on the local plane, and
// length and width are its CAM footprint.
func (s Scene) Moving(length, width float64, pose func() (pos geo.Point, speed, heading float64)) stack.Mobility {
	return moving{s.Frame, length, width, pose}
}

type moving struct {
	frame         *geo.Frame
	length, width float64
	pose          func() (geo.Point, float64, float64)
}

func (m moving) Position() geo.Point {
	p, _, _ := m.pose()
	return p
}

func (m moving) VehicleState() ca.VehicleState {
	p, speed, heading := m.pose()
	return ca.VehicleState{Position: m.frame.ToGeodetic(p), SpeedMS: speed, HeadingRad: heading, Length: m.length, Width: m.width}
}

// Edge is the edge node of Fig. 3: its NTP-disciplined clock and the
// road-side camera feeding the Object Detection Service, which feeds
// the Hazard Advertisement Service.
type Edge struct {
	Clock  *clock.NTPClock
	Camera *perception.RoadsideCamera
	ODS    *edge.ObjectDetectionService
	Hazard *edge.HazardAdvertisementService
}

// EdgeConfig parameterises the edge node. Filter, when set, screens
// each camera frame before the ODS sees it (false drops the frame).
type EdgeConfig struct {
	Camera perception.CameraConfig
	Hazard edge.HazardConfig
	Filter func(perception.FrameResult) (perception.FrameResult, bool)
}

// Edge builds the edge node; its hazard service triggers DENMs through
// the RSU's API node.
func (s Scene) Edge(rsu *openc2x.SimNode, cfg EdgeConfig) *Edge {
	k := s.Kernel
	e := &Edge{
		Clock:  clock.NewNTP(clock.SourceFunc(k.Now), s.NTP, k.Rand("clock.edge")),
		Camera: perception.NewRoadsideCamera(k, cfg.Camera),
		ODS:    edge.NewObjectDetectionService(),
	}
	if cfg.Filter == nil {
		e.Camera.Subscribe(e.ODS.OnFrame)
	} else {
		e.Camera.Subscribe(func(res perception.FrameResult) {
			if res, ok := cfg.Filter(res); ok {
				e.ODS.OnFrame(res)
			}
		})
	}
	e.Hazard = edge.NewHazardService(k, cfg.Hazard, rsu, e.Clock)
	e.ODS.Subscribe(e.Hazard.OnTrack)
	return e
}

// VehicleTarget points a road-side camera at v.
func VehicleTarget(v *vehicle.Vehicle) perception.TargetFunc {
	return func() (geo.Point, float64, perception.Dressing, bool) {
		st := v.Body.State()
		return st.Position, st.Heading, v.Dressing(), true
	}
}
