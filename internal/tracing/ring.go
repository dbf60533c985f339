package tracing

import (
	"encoding/json"
	"net/http"
	"sync"
)

// TraceRecord is one completed trace held by a Ring.
type TraceRecord struct {
	Spans []SpanRecord `json:"spans"`
}

// Ring is a bounded buffer of recently completed traces: the daemons
// move each finished trace out of their Tracer (Take) into a Ring, so
// a long-running rsud/obud holds at most cap traces instead of
// growing without bound. Safe for concurrent use.
type Ring struct {
	mu      sync.Mutex
	cap     int
	traces  []TraceRecord
	dropped uint64
	total   uint64
}

// NewRing creates a ring holding up to capacity traces; capacity <= 0
// selects 64.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 64
	}
	return &Ring{cap: capacity}
}

// Add appends a completed trace, evicting the oldest when full. Empty
// traces are ignored.
func (r *Ring) Add(spans []SpanRecord) {
	if r == nil || len(spans) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.traces) >= r.cap {
		drop := len(r.traces) - r.cap + 1
		r.traces = append(r.traces[:0], r.traces[drop:]...)
		r.dropped += uint64(drop)
	}
	r.traces = append(r.traces, TraceRecord{Spans: spans})
}

// ringPage is the JSON document served by Handler.
type ringPage struct {
	Capacity int           `json:"capacity"`
	Total    uint64        `json:"total"`
	Dropped  uint64        `json:"dropped"`
	Traces   []TraceRecord `json:"traces"`
}

// Handler serves the ring's contents as JSON (the daemons' /trace
// endpoint) with an explicit application/json content type.
func (r *Ring) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		page := ringPage{Traces: []TraceRecord{}}
		if r != nil {
			r.mu.Lock()
			page.Capacity = r.cap
			page.Total = r.total
			page.Dropped = r.dropped
			page.Traces = append(page.Traces, r.traces...)
			r.mu.Unlock()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(page)
	})
}
