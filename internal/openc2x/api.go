// Package openc2x reproduces the OpenC2X deployment of the paper: an
// ETSI ITS station (OBU or RSU) that exposes the stack to applications
// through an HTTP API. The road-side edge node POSTs to /trigger_denm
// to have the RSU transmit a DENM; the vehicle's control script POSTs
// to /request_denm to poll the OBU for received DENMs.
//
// Two deployments are provided. SimNode runs inside the discrete-event
// testbed on a stack.Station, modelling the HTTP round-trip latency of
// the wired lab network. MuxServer hosts RealNodes over genuine
// sockets (net/http API, UDP link emulation) for the rsud/obud daemons
// (Daemon.Run) and the httpapi example.
package openc2x

import (
	"time"

	"itsbed/internal/geo"
	"itsbed/internal/its/messages"
)

// Default API port OpenC2X's web application listens on.
const DefaultAPIPort = 1188

// TriggerRequest is the body of a POST /trigger_denm.
type TriggerRequest struct {
	CauseCode    uint8   `json:"causeCode"`
	SubCauseCode uint8   `json:"subCauseCode"`
	Latitude     float64 `json:"latitude"`
	Longitude    float64 `json:"longitude"`
	// Quality is the situation informationQuality (0..7).
	Quality uint8 `json:"quality"`
	// ValiditySeconds of the event; 0 selects the standard default.
	ValiditySeconds uint32 `json:"validitySeconds,omitempty"`
	// RadiusMetres of the relevance area; 0 selects 200 m.
	RadiusMetres uint16 `json:"radiusMetres,omitempty"`
	// SpeedMS and HeadingRad of the event subject, if known.
	SpeedMS    float64 `json:"speedMS,omitempty"`
	HeadingRad float64 `json:"headingRad,omitempty"`
	// RepetitionIntervalMS enables DEN repetition at the station; 0
	// sends a single DENM as the paper's testbed does.
	RepetitionIntervalMS uint16 `json:"repetitionIntervalMS,omitempty"`
	// RepetitionDurationMS bounds the repetition window.
	RepetitionDurationMS uint32 `json:"repetitionDurationMS,omitempty"`
}

// Position returns the event position as a geodetic point.
func (r TriggerRequest) Position() geo.LatLon {
	return geo.LatLon{Lat: r.Latitude, Lon: r.Longitude}
}

// TriggerResponse is the body returned by POST /trigger_denm.
type TriggerResponse struct {
	OK                   bool   `json:"ok"`
	OriginatingStationID uint32 `json:"originatingStationID"`
	SequenceNumber       uint16 `json:"sequenceNumber"`
	Error                string `json:"error,omitempty"`
}

// ReceivedDENM is one DENM delivered by the stack, as reported by
// POST /request_denm.
type ReceivedDENM struct {
	DENM *messages.DENM
	// ReceivedAt is the station-clock time of delivery to the
	// facilities layer.
	ReceivedAt time.Duration
}

// DENMSummary is the JSON projection of a received DENM returned by
// the HTTP API.
type DENMSummary struct {
	OriginatingStationID uint32  `json:"originatingStationID"`
	SequenceNumber       uint16  `json:"sequenceNumber"`
	CauseCode            uint8   `json:"causeCode"`
	SubCauseCode         uint8   `json:"subCauseCode"`
	CauseDescription     string  `json:"causeDescription"`
	Latitude             float64 `json:"latitude"`
	Longitude            float64 `json:"longitude"`
	DetectionTimeMS      uint64  `json:"detectionTimeMS"`
	ReceivedAtMS         int64   `json:"receivedAtMS"`
	Terminated           bool    `json:"terminated"`
}

// Summarize converts a received DENM to its API projection.
func Summarize(rd ReceivedDENM) DENMSummary {
	d := rd.DENM
	s := DENMSummary{
		OriginatingStationID: uint32(d.Management.ActionID.OriginatingStationID),
		SequenceNumber:       d.Management.ActionID.SequenceNumber,
		Latitude:             d.Management.EventPosition.Latitude.Degrees(),
		Longitude:            d.Management.EventPosition.Longitude.Degrees(),
		DetectionTimeMS:      d.Management.DetectionTime,
		ReceivedAtMS:         rd.ReceivedAt.Milliseconds(),
		Terminated:           d.IsTermination(),
	}
	if d.Situation != nil {
		s.CauseCode = uint8(d.Situation.EventType.CauseCode)
		s.SubCauseCode = uint8(d.Situation.EventType.SubCauseCode)
		s.CauseDescription = d.Situation.EventType.CauseCode.String()
	}
	return s
}
