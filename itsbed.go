// Package itsbed is a laboratory-scale reproduction, in pure Go, of
// the ETSI ITS robotic testbed for network-aided safety-critical
// scenarios (Pinheiro et al., DSN 2023): a 1/10-scale autonomous
// vehicle with an ETSI ITS-G5 On-Board Unit, a road-side
// infrastructure with camera, edge object detection and a Road-Side
// Unit, and the collision-avoidance application in which the
// infrastructure detects an impending collision and issues a DEN
// message that emergency-brakes the vehicle.
//
// The package is a facade over the full implementation:
//
//   - a from-scratch ETSI ITS stack (ASN.1 UPER codec, CAM/DENM
//     messages, BTP, GeoNetworking, CA/DEN facilities, LDM);
//   - an IEEE 802.11p access-layer model (EDCA, airtime, path loss);
//   - the robotic vehicle (bicycle-model physics, Canny +
//     probabilistic-Hough line following, PID steering, USART/PWM
//     actuation);
//   - the road-side perception chain (4 FPS camera, YOLO-style
//     detector model with the paper's Fig. 7 behaviours);
//   - OpenC2X-style HTTP APIs, both simulated and over real sockets;
//   - one experiment harness per table and figure of the paper.
//
// Quick start:
//
//	tb, err := itsbed.New(itsbed.Config{Seed: 1})
//	if err != nil { ... }
//	res, err := tb.RunScenario(30 * time.Second)
//	fmt.Println(res.Intervals.Total) // detection-to-actuation delay
package itsbed

import (
	"time"

	"itsbed/internal/core"
	"itsbed/internal/experiments"
	"itsbed/internal/its/messages"
	"itsbed/internal/track"
)

// Config parameterises a testbed instance. The zero value (plus a
// Seed) reproduces the paper's laboratory setup.
type Config = core.Config

// Testbed is one assembled instance of the ETSI ITS Collision
// Avoidance System.
type Testbed = core.Testbed

// Result is the outcome of one emergency-braking scenario run.
type Result = core.Result

// VideoAnalysis is the Fig. 10 style frame reading of a run.
type VideoAnalysis = core.VideoAnalysis

// Radio interface selectors for Config.Radio.
const (
	RadioITSG5  = core.RadioITSG5
	RadioCV2XUu = core.RadioCV2XUu
)

// New assembles a testbed.
func New(cfg Config) (*Testbed, error) { return core.New(cfg) }

// Layout describes the laboratory floor: guide line, camera pose and
// action point.
type Layout = track.Layout

// PaperLab returns the paper's Fig. 8 floor layout.
func PaperLab() Layout { return track.PaperLab() }

// ScenarioOptions tune the repeated-run experiment harnesses.
type ScenarioOptions = experiments.ScenarioOptions

// Experiment harnesses — one per table/figure of the paper, plus the
// future-work extension studies. See the cmd/itsbed CLI for printed
// forms.
var (
	// TableII reproduces the step-interval table.
	TableII = experiments.TableII
	// TableIII reproduces the braking-distance table.
	TableIII = experiments.TableIII
	// Figure7 quantifies the detection-reliability findings.
	Figure7 = experiments.Figure7
	// Figure10 performs the video-frame detection-to-stop reading.
	Figure10 = experiments.Figure10
	// Figure11 builds the EDF of total delays.
	Figure11 = experiments.Figure11
	// LatencyCDF is the future-work large-N latency study.
	LatencyCDF = experiments.LatencyCDF
	// RadioComparison compares ITS-G5 against cellular profiles.
	RadioComparison = experiments.RadioComparison
	// Platoon runs the platoon emergency-braking scenario.
	Platoon = experiments.Platoon
	// PlatoonStudy aggregates platoon runs over seeds.
	PlatoonStudy = experiments.PlatoonStudy
	// BlindCorner compares network-aided and onboard-only braking at
	// the Fig. 1 crossing scenario.
	BlindCorner = experiments.BlindCorner
	// PollIntervalSweep ablates the OBU polling period.
	PollIntervalSweep = experiments.PollIntervalSweep
	// CameraFPSSweep ablates the road-side processing rate.
	CameraFPSSweep = experiments.CameraFPSSweep
	// ChannelLoadSweep ablates channel load and DENM EDCA priority.
	ChannelLoadSweep = experiments.ChannelLoadSweep
	// ObstructedLink studies DENM delivery through walls with and
	// without DEN repetition.
	ObstructedLink = experiments.ObstructedLink
	// PlatoonACC compares DENM-to-all against sensor-only followers
	// over following gaps (string stability).
	PlatoonACC = experiments.PlatoonACC
	// NTPQualitySweep quantifies timestamping error vs clock sync.
	NTPQualitySweep = experiments.NTPQualitySweep
)

// Platoon delivery modes.
const (
	PlatoonITSG5  = experiments.PlatoonITSG5
	PlatoonHybrid = experiments.PlatoonHybrid
)

// DENM, CAM and CPM message tooling (wire-format encode/decode and
// the Table I cause-code registry).
type (
	// DENM is a Decentralized Environmental Notification Message.
	DENM = messages.DENM
	// CAM is a Cooperative Awareness Message.
	CAM = messages.CAM
	// CPM is a Collective Perception Message.
	CPM = messages.CPM
	// CauseCode is a DENM direct cause code.
	CauseCode = messages.CauseCode
	// EventType pairs a cause and sub-cause code.
	EventType = messages.EventType
)

// DecodeDENM parses a UPER-encoded DENM.
func DecodeDENM(data []byte) (*DENM, error) { return messages.DecodeDENM(data) }

// DecodeCAM parses a UPER-encoded CAM.
func DecodeCAM(data []byte) (*CAM, error) { return messages.DecodeCAM(data) }

// DecodeCPM parses a UPER-encoded CPM.
func DecodeCPM(data []byte) (*CPM, error) { return messages.DecodeCPM(data) }

// RunQuick assembles a default testbed with the given seed and runs
// one emergency-braking scenario.
func RunQuick(seed int64) (*Result, error) {
	tb, err := New(Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	return tb.RunScenario(30 * time.Second)
}
