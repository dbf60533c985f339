// Package tracing is a zero-dependency, simulation-clock-aware span
// tracer for the testbed's per-message causal chains. Where
// internal/metrics aggregates (the radio layer averaged 4 ms), a trace
// follows one DENM across layers and stations: detection → OpenC2X
// trigger → DEN encode → stack tx latency → GeoNetworking → EDCA
// channel access → airtime → per-receiver outcome → decode → mailbox
// residency → poll pickup → actuator command.
//
// Span and trace identifiers come from a per-tracer sequence counter —
// no wall clock, no randomness — so output is bit-identical across
// -workers when each attempt records into a private Tracer and
// accepted runs are merged in commit order (MergeRuns), exactly like
// the metrics registry.
//
// Context propagates two ways. Synchronous call chains use a current-
// span stack (Scope); hops across scheduler boundaries or process-like
// boundaries re-attach by identity keys the messages already carry
// (DENM ActionID, GN source address + sequence, the per-station poll
// pickup) via Bind/Find.
//
// All methods are safe on nil receivers: a nil *Tracer or nil *Span is
// a no-op, so instrumented layers need no "is tracing enabled" checks.
package tracing

import (
	"fmt"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// AttrDropReason is the attribute key carrying why a span's message
// was dropped (queue_full, sensitivity, sinr, duplicate, out_of_area,
// repetition, ...).
const AttrDropReason = "drop_reason"

// SpanRecord is the immutable exported form of a span.
type SpanRecord struct {
	// Trace is the ID of the root span of this span's tree.
	Trace uint64 `json:"trace"`
	// ID is unique within the tracer; roots have ID == Trace.
	ID uint64 `json:"id"`
	// Parent is zero for root spans.
	Parent uint64 `json:"parent,omitempty"`
	// Run is the 1-based run index after MergeRuns (zero before).
	Run     int    `json:"run,omitempty"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Station string `json:"station,omitempty"`
	// Start and End are offsets on the owning clock (the simulation
	// kernel, or time-since-daemon-start for real nodes).
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Ended reports whether End was recorded (an unended span's End is
	// meaningless).
	Ended bool   `json:"ended"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// Duration is End-Start for ended spans, zero otherwise.
func (r SpanRecord) Duration() time.Duration {
	if !r.Ended {
		return 0
	}
	return r.End - r.Start
}

// Attr returns the value of an attribute, or "".
func (r SpanRecord) Attr(key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Span is one open or closed interval on a trace tree. Spans are
// created through a Tracer and share its lock; a nil *Span ignores
// every call.
type Span struct {
	t   *Tracer
	rec SpanRecord
}

// Tracer creates spans with deterministic IDs. The zero value is not
// usable; call New. A nil *Tracer is a valid disabled tracer.
type Tracer struct {
	mu     sync.Mutex
	nextID uint64
	spans  []*Span
	binds  map[string]*Span
	stack  []*Span
}

// New creates an empty tracer.
func New() *Tracer {
	return &Tracer{binds: make(map[string]*Span)}
}

// Reset returns the tracer to its initial state while keeping the span
// slice's capacity, so the campaign engine can pool tracers across
// attempts. The ID sequence restarts at zero: a reused tracer records
// the exact same spans a fresh one would.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID = 0
	for i := range t.spans {
		t.spans[i] = nil
	}
	t.spans = t.spans[:0]
	for i := range t.stack {
		t.stack[i] = nil
	}
	t.stack = t.stack[:0]
	clear(t.binds)
}

// StartChild opens a span under an explicit parent; a nil parent
// starts a new trace. Returns nil when the tracer is nil.
func (t *Tracer) StartChild(parent *Span, name, layer, station string, at time.Duration) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s := &Span{t: t, rec: SpanRecord{
		ID:      t.nextID,
		Name:    name,
		Layer:   layer,
		Station: station,
		Start:   at,
	}}
	if parent != nil {
		s.rec.Parent = parent.rec.ID
		s.rec.Trace = parent.rec.Trace
	} else {
		s.rec.Trace = s.rec.ID
	}
	t.spans = append(t.spans, s)
	return s
}

// Start opens a span under the current span (see Scope), or as a new
// trace root when no span is current.
func (t *Tracer) Start(name, layer, station string, at time.Duration) *Span {
	return t.StartChild(t.Current(), name, layer, station, at)
}

// Current returns the innermost span pushed by Scope, or nil.
func (t *Tracer) Current() *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.stack) == 0 {
		return nil
	}
	return t.stack[len(t.stack)-1]
}

// Scope runs fn with s as the current span, so spans started inside
// fn (including through synchronous callback chains) become its
// children. With a nil tracer or nil span, fn simply runs.
func (t *Tracer) Scope(s *Span, fn func()) {
	if t == nil || s == nil {
		fn()
		return
	}
	t.mu.Lock()
	t.stack = append(t.stack, s)
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		t.stack = t.stack[:len(t.stack)-1]
		t.mu.Unlock()
	}()
	fn()
}

// Bind associates an identity key (e.g. a DENM ActionID) with a span,
// so later asynchronous hops can re-attach to the tree via Find.
func (t *Tracer) Bind(key string, s *Span) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.binds[key] = s
}

// Find returns the span bound to key, or nil.
func (t *Tracer) Find(key string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.binds[key]
}

// Snapshot is an immutable set of span records in creation order.
type Snapshot struct {
	Spans []SpanRecord `json:"spans"`
}

// Snapshot copies out every span (ended or not) in ID order.
func (t *Tracer) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := Snapshot{Spans: make([]SpanRecord, len(t.spans))}
	for i, s := range t.spans {
		out.Spans[i] = s.record()
	}
	return out
}

// record copies the span's record; the attribute slice is cloned so
// the caller holds no live reference. Caller must hold t.mu.
func (s *Span) record() SpanRecord {
	rec := s.rec
	if len(rec.Attrs) > 0 {
		rec.Attrs = append([]Attr(nil), rec.Attrs...)
	}
	return rec
}

// Take removes and returns the spans of one trace (used by the
// daemons to move completed traces into a bounded ring buffer without
// the tracer growing forever).
func (t *Tracer) Take(trace uint64) []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var taken []SpanRecord
	kept := t.spans[:0]
	for _, s := range t.spans {
		if s.rec.Trace == trace {
			taken = append(taken, s.record())
		} else {
			kept = append(kept, s)
		}
	}
	for i := len(kept); i < len(t.spans); i++ {
		t.spans[i] = nil
	}
	t.spans = kept
	for k, s := range t.binds {
		if s.rec.Trace == trace {
			delete(t.binds, k)
		}
	}
	return taken
}

// End closes the span at the given instant. Later calls are ignored
// (first end wins).
func (s *Span) End(at time.Duration) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if !s.rec.Ended {
		s.rec.End = at
		s.rec.Ended = true
	}
}

// Drop ends the span recording why its message went no further.
func (s *Span) Drop(at time.Duration, reason string) {
	if s == nil {
		return
	}
	s.SetAttr(AttrDropReason, reason)
	s.End(at)
}

// SetAttr annotates the span; the last value per key wins.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for i, a := range s.rec.Attrs {
		if a.Key == key {
			s.rec.Attrs[i].Value = value
			return
		}
	}
	s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Value: value})
}

// TraceID returns the span's trace identifier (zero for nil).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.rec.Trace
}

// EndTime returns when the span ended, or its start when still open.
func (s *Span) EndTime() time.Duration {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.rec.Ended {
		return s.rec.End
	}
	return s.rec.Start
}

// Identity keys. The chain key marks the root of a detection→actuation
// chain; message keys name identities the wire format already carries.
const KeyChain = "chain"

// KeyDENM identifies a DENM at one station by its ActionID
// (originating station + sequence). The observing station's name is
// part of the key because one simulation tracer spans every station.
func KeyDENM(station string, origin uint32, seq uint16) string {
	return fmt.Sprintf("denm:%s:%d:%d", station, origin, seq)
}

// KeyGBC identifies a GeoNetworking GBC packet by source address and
// sequence number.
func KeyGBC(source string, seq uint16) string {
	return fmt.Sprintf("gbc:%s:%d", source, seq)
}

// KeyPoll identifies the latest non-empty poll delivery at a station.
func KeyPoll(station string) string { return "poll:" + station }

// MergeRuns combines per-attempt snapshots in commit order into one
// snapshot: run i's IDs are rebased past run i-1's and each span is
// tagged with its 1-based run index. Same inputs, same output — the
// determinism contract mirrors metrics.Registry.Merge.
func MergeRuns(snaps []Snapshot) Snapshot {
	var out Snapshot
	var base uint64
	for i, snap := range snaps {
		var maxID uint64
		for _, rec := range snap.Spans {
			rec.Run = i + 1
			if rec.ID > maxID {
				maxID = rec.ID
			}
			rec.ID += base
			rec.Trace += base
			if rec.Parent != 0 {
				rec.Parent += base
			}
			out.Spans = append(out.Spans, rec)
		}
		base += maxID
	}
	return out
}

// FilterTraces keeps only the traces whose root span satisfies keep.
// Spans whose trace has no root in the snapshot are dropped.
func (s Snapshot) FilterTraces(keep func(root SpanRecord) bool) Snapshot {
	type traceKey struct {
		run   int
		trace uint64
	}
	wanted := make(map[traceKey]bool)
	for _, rec := range s.Spans {
		if rec.ID == rec.Trace && keep(rec) {
			wanted[traceKey{rec.Run, rec.Trace}] = true
		}
	}
	var out Snapshot
	for _, rec := range s.Spans {
		if wanted[traceKey{rec.Run, rec.Trace}] {
			out.Spans = append(out.Spans, rec)
		}
	}
	return out
}
