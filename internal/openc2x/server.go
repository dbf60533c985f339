package openc2x

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"itsbed/internal/its/messages"
)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// DefaultMaxBodyBytes caps request bodies: the API's largest legitimate
// request (a TriggerRequest) is well under a kilobyte, so anything
// bigger is a client bug or abuse and is answered 413 before it can
// balloon the daemon's memory.
const DefaultMaxBodyBytes = 1 << 16

// decodeBody decodes a bounded JSON body into v: oversized bodies are
// answered 413, malformed ones 400. An empty body is malformed unless
// emptyOK, in which case v keeps its value. Reports whether decoding
// succeeded; on failure the response has been written.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, emptyOK bool) bool {
	r.Body = http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes)
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil || (emptyOK && err == io.EOF) {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, TriggerResponse{Error: err.Error()})
	return false
}

// handleTriggerNode serves POST trigger_denm against one station.
func handleTriggerNode(node *RealNode, w http.ResponseWriter, r *http.Request) {
	var req TriggerRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	id, err := node.TriggerDENM(req)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, TriggerResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, TriggerResponse{
		OK:                   true,
		OriginatingStationID: uint32(id.OriginatingStationID),
		SequenceNumber:       id.SequenceNumber,
	})
}

// handleRequestNode serves POST request_denm against one station.
// pollDelay, when non-nil, runs after the drain (test hook).
func handleRequestNode(node *RealNode, w http.ResponseWriter, r *http.Request, pollDelay func()) {
	batch := node.RequestDENM()
	if pollDelay != nil {
		pollDelay()
	}
	out := make([]DENMSummary, 0, len(batch))
	for _, rd := range batch {
		out = append(out, Summarize(rd))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTriggerCAMNode serves POST trigger_cam against one station.
func handleTriggerCAMNode(node *RealNode, w http.ResponseWriter, r *http.Request) {
	if err := node.TriggerCAM(); err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

type causeJSON struct {
	Code        uint8             `json:"code"`
	Description string            `json:"description"`
	SubCauses   map[string]string `json:"subCauses,omitempty"`
}

func handleCauses(w http.ResponseWriter, r *http.Request) {
	all := messages.AllCauses()
	out := make([]causeJSON, 0, len(all))
	for _, c := range all {
		cj := causeJSON{Code: uint8(c.Code), Description: c.Description}
		if len(c.SubCauses) > 0 {
			cj.SubCauses = make(map[string]string, len(c.SubCauses))
			for k, v := range c.SubCauses {
				cj.SubCauses[fmt.Sprintf("%d", k)] = v
			}
		}
		out = append(out, cj)
	}
	writeJSON(w, http.StatusOK, out)
}
