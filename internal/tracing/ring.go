package tracing

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
)

// TraceRecord is one completed trace held by a Ring.
type TraceRecord struct {
	Spans []SpanRecord `json:"spans"`
}

// Ring is a bounded buffer of recently completed traces: the daemons
// move each finished trace out of their Tracer into a Ring (Retire),
// so a long-running rsud/obud holds at most cap traces instead of
// growing without bound. It is circular: once full, Retire overwrites
// the oldest trace in place and reuses its record storage, so a
// daemon in steady state retires traces without allocating records.
// Safe for concurrent use.
type Ring struct {
	mu      sync.Mutex
	cap     int
	traces  []TraceRecord // up to cap; the oldest at next once full
	next    int           // slot the next trace overwrites once full
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

// Retire moves the trace of s out of t (Tracer.Take) into the ring,
// evicting the oldest trace when full. A trace with no span left in t
// is ignored.
func (r *Ring) Retire(t *Tracer, s *Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	full := len(r.traces) == r.cap
	var reuse []SpanRecord
	if full {
		reuse = r.traces[r.next].Spans[:0]
	}
	spans := t.Take(reuse, s)
	if len(spans) == 0 {
		return
	}
	r.total++
	if !full {
		r.traces = append(r.traces, TraceRecord{Spans: spans})
		return
	}
	r.traces[r.next] = TraceRecord{Spans: spans}
	r.next = (r.next + 1) % r.cap
	r.dropped++
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
		page := r.page()
		w.Header().Set("Content-Type", "application/json")
		pe := pageEncoders.Get().(*pageEncoder)
		pe.buf.Reset()
		if pe.enc.Encode(page) == nil {
			_, _ = w.Write(pe.buf.Bytes())
		}
		pageEncoders.Put(pe)
	})
}

// page copies the ring's contents out, oldest trace first.
func (r *Ring) page() ringPage {
	page := ringPage{Traces: []TraceRecord{}}
	if r == nil {
		return page
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	page.Capacity = r.cap
	page.Total = r.total
	page.Dropped = r.dropped
	// Retire reuses the records of evicted traces: copy them out
	// before unlocking.
	n := 0
	for _, tr := range r.traces {
		n += len(tr.Spans)
	}
	recs := make([]SpanRecord, 0, n)
	for i := range r.traces {
		spans := r.traces[(r.next+i)%len(r.traces)].Spans
		recs = append(recs, spans...)
		page.Traces = append(page.Traces, TraceRecord{Spans: recs[len(recs)-len(spans):]})
	}
	return page
}

// pageEncoder is an indenting JSON encoder over its own buffer. The
// encoder keeps its indent buffer between pages, which a fresh encoder
// per request would allocate and grow to the page's size every time.
type pageEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var pageEncoders = sync.Pool{New: func() any {
	pe := new(pageEncoder)
	pe.enc = json.NewEncoder(&pe.buf)
	pe.enc.SetIndent("", "  ")
	return pe
}}
