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
	"cmp"
	"fmt"
	"slices"
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
// every call. A daemon holds two spans per queued DENM, so a Span
// keeps its record compact: the name, layer and station it shares
// with the tracer's other spans of that kind sit behind one pointer.
type Span struct {
	t *Tracer
	// link closes a cycle over every span ever started in this span's
	// trace (a root links to itself; a child is inserted after its
	// parent), so Take reaches a trace's spans without a scan.
	link *Span
	kind *spanKind
	// trace, id and parent are the record's Trace, ID and Parent.
	trace, id, parent uint64
	start, end        time.Duration
	attrs             []Attr
	ended             bool
}

// spanKind is a span's name, layer and station, interned per tracer.
type spanKind struct {
	name, layer, station string
}

// Tracer creates spans with deterministic IDs. The zero value is not
// usable; call New. A nil *Tracer is a valid disabled tracer.
type Tracer struct {
	mu     sync.Mutex
	nextID uint64
	// spans holds one slot per ID up to nextID, in ID order: the span
	// with ID id sits at len(spans)-1-(nextID-id), and a taken span's
	// slot is nil. spans[:head] are all nil; Take advances head past
	// them and StartChild reclaims them before the slice would grow.
	spans []*Span
	head  int
	binds map[string]*Span
	// bound lists the keys bound to each trace, so Take drops a
	// trace's binds without scanning binds. Made on the first Bind.
	bound map[uint64][]string
	stack []*Span
	// kinds interns every span kind started so far; it survives Reset.
	kinds map[spanKind]*spanKind
}

// New creates an empty tracer.
func New() *Tracer {
	return &Tracer{binds: make(map[string]*Span), kinds: make(map[spanKind]*spanKind)}
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
	t.head = 0
	for i := range t.stack {
		t.stack[i] = nil
	}
	t.stack = t.stack[:0]
	clear(t.binds)
	clear(t.bound)
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
	kind := t.kinds[spanKind{name, layer, station}]
	if kind == nil {
		kind = &spanKind{name, layer, station}
		t.kinds[*kind] = kind
	}
	s := &Span{t: t, kind: kind, id: t.nextID, start: at}
	if parent != nil {
		s.parent = parent.id
		s.trace = parent.trace
		s.link = parent.link
		parent.link = s
	} else {
		s.trace = s.id
		s.link = s
	}
	if len(t.spans) == cap(t.spans) && t.head > 0 && 4*t.head >= len(t.spans) {
		// At least a quarter of the slots are a taken prefix: move the
		// rest down instead of growing.
		n := copy(t.spans, t.spans[t.head:])
		clear(t.spans[n:])
		t.spans = t.spans[:n]
		t.head = 0
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
	old, rebind := t.binds[key]
	t.binds[key] = s
	if rebind && old.trace == s.trace {
		return
	}
	if t.bound == nil {
		t.bound = make(map[uint64][]string)
	}
	t.bound[s.trace] = append(t.bound[s.trace], key)
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
	out := Snapshot{Spans: make([]SpanRecord, 0, len(t.spans)-t.head)}
	for _, s := range t.spans[t.head:] {
		if s != nil {
			out.Spans = append(out.Spans, s.record())
		}
	}
	return out
}

// slot returns the index of s in t.spans, or -1 when s is not held
// (taken, or started before the last Reset). Caller must hold t.mu.
func (t *Tracer) slot(s *Span) int {
	if s.id > t.nextID || t.nextID-s.id >= uint64(len(t.spans)-t.head) {
		return -1
	}
	i := len(t.spans) - 1 - int(t.nextID-s.id)
	if t.spans[i] != s {
		return -1
	}
	return i
}

// record copies the span's record; the attribute slice is cloned so
// the caller holds no live reference. Caller must hold t.mu.
func (s *Span) record() SpanRecord {
	rec := s.share()
	if len(rec.Attrs) > 0 {
		rec.Attrs = append([]Attr(nil), rec.Attrs...)
	}
	return rec
}

// share is the span's record holding the span's own attribute slice.
// Caller must hold t.mu.
func (s *Span) share() SpanRecord {
	return SpanRecord{
		Trace:   s.trace,
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.kind.name,
		Layer:   s.kind.layer,
		Station: s.kind.station,
		Start:   s.start,
		End:     s.end,
		Ended:   s.ended,
		Attrs:   s.attrs,
	}
}

// Take removes the spans of s's trace that the tracer still holds,
// appends their records to dst in ID order, and drops the trace's
// binds. With a nil dst it returns just the trace. The daemons use it
// (through Ring.Retire) to move each completed trace out of their
// tracer, so the tracer does not grow forever. Its cost is the number
// of spans ever started in the trace, whatever else the tracer holds.
// A span started later under a taken span joins the same trace, and a
// later Take collects it. Spans started before a Reset are not held:
// Take on one of them collects nothing.
func (t *Tracer) Take(dst []SpanRecord, s *Span) []SpanRecord {
	taken, _ := t.take(dst, s)
	return taken
}

// take is Take, also reporting how many spans it visited.
func (t *Tracer) take(dst []SpanRecord, s *Span) (taken []SpanRecord, visited int) {
	if t == nil || s == nil {
		return dst, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf [4]*Span
	held := buf[:0]
	p := s
	for {
		visited++
		if i := t.slot(p); i >= 0 {
			t.spans[i] = nil
			held = append(held, p)
		}
		if p = p.link; p == s {
			break
		}
	}
	for t.head < len(t.spans) && t.spans[t.head] == nil {
		t.head++
	}
	if t.head == len(t.spans) {
		t.spans = t.spans[:0]
		t.head = 0
	}
	trace := s.trace
	for _, k := range t.bound[trace] {
		if b, ok := t.binds[k]; ok && b.trace == trace {
			delete(t.binds, k)
		}
	}
	delete(t.bound, trace)
	// The cycle is in insertion order, not ID order.
	slices.SortFunc(held, func(a, b *Span) int { return cmp.Compare(a.id, b.id) })
	// A taken span is no longer observable through the tracer, so its
	// attributes move into the record instead of being copied: a later
	// SetAttr on the span starts a fresh slice.
	for _, h := range held {
		dst = append(dst, h.share())
		h.attrs = nil
	}
	return dst, visited
}

// End closes the span at the given instant. Later calls are ignored
// (first end wins).
func (s *Span) End(at time.Duration) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if !s.ended {
		s.end = at
		s.ended = true
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
	for i, a := range s.attrs {
		if a.Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// EndTime returns when the span ended, or its start when still open.
func (s *Span) EndTime() time.Duration {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.ended {
		return s.end
	}
	return s.start
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
