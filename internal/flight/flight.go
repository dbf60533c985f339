// Package flight is the testbed's black-box flight recorder: an
// always-on, bounded, near-zero-allocation ring of compact structured
// events per station — radio tx/rx/drops with reasons, DCC state
// transitions and throttles, CA/DEN/CP generate/receive, LDM
// ingest/expiry/fusion, watchdog trips, fault activations and
// actuation commands. Where internal/metrics aggregates and
// internal/tracing follows one message, the flight recorder keeps the
// last N things that happened to every station, so a run that
// classifies as "miss" can be opened up post-mortem: which frame died,
// why, and what the stack was doing around it.
//
// Determinism is the same contract as metrics and tracing: events are
// stamped with simulation-clock time and a recorder-local sequence
// number (no wall clock, no randomness) and each campaign attempt
// records into a private pooled Recorder — so dumps are bit-identical
// for any -workers value.
//
// The append path allocates nothing: rings are fixed-size slabs
// allocated when a station's Hook is first created, events are
// plain-value structs, and Reset keeps both the slabs and the interned
// station table so a pooled recorder behaves exactly like a fresh one.
// All methods are safe on nil receivers and zero-value Hooks, so
// instrumented layers need no "is recording enabled" checks.
//
// A simulation recorder has one writer, the kernel goroutine of its
// run, so NewRecorder's appends take no lock. A recorder written by
// several goroutines at once (the daemon's MuxServer, whose HTTP
// handlers and receive loop all record) comes from NewLockedRecorder.
package flight

import (
	"sort"
	"sync"
	"time"
)

// Kind classifies one recorded event.
type Kind uint8

// Event kinds, one per instrumented decision point in the stack.
const (
	RadioTx Kind = iota
	RadioRx
	RadioDrop
	DCCState
	DCCThrottle
	CAMTx
	CAMRx
	DENMTx
	DENMRx
	CPMTx
	CPMRx
	LDMIngest
	LDMExpire
	LDMFuse
	WatchdogTrip
	FaultEvent
	Actuation
	MailboxDrop
	HTTPShed

	numKinds
)

var kindNames = [numKinds]string{
	RadioTx:      "radio.tx",
	RadioRx:      "radio.rx",
	RadioDrop:    "radio.drop",
	DCCState:     "dcc.state",
	DCCThrottle:  "dcc.throttle",
	CAMTx:        "cam.tx",
	CAMRx:        "cam.rx",
	DENMTx:       "denm.tx",
	DENMRx:       "denm.rx",
	CPMTx:        "cpm.tx",
	CPMRx:        "cpm.rx",
	LDMIngest:    "ldm.ingest",
	LDMExpire:    "ldm.expire",
	LDMFuse:      "ldm.fuse",
	WatchdogTrip: "watchdog",
	FaultEvent:   "fault",
	Actuation:    "actuation",
	MailboxDrop:  "mailbox.drop",
	HTTPShed:     "http.shed",
}

// String names the kind ("radio.tx", "dcc.state", ...).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// RadioDrop codes mirror the medium's drop_reason labels. Sensitivity
// drops are deliberately NOT recorded: the spatial culling grid
// bulk-accounts out-of-range receivers without visiting them, so a
// per-receiver sensitivity event would make grid and brute-force runs
// diverge (and would dwarf the ring with non-events anyway).
const (
	DropQueueFull uint8 = iota
	DropSINR
	DropBlackout
	DropBurstLoss
	DropCorruption
	// DropCollision is the C-V2X mode-4 same-resource collision: two
	// stations transmitted on the same (slot, subchannel) grant.
	DropCollision
	// DropHalfDuplex marks a frame missed because the receiver was
	// itself transmitting in the same sidelink slot.
	DropHalfDuplex
)

// Receive codes (CAMRx/DENMRx/CPMRx/RadioRx).
const (
	RxOK uint8 = iota
	RxMalformed
)

// LDMIngest codes name the object source.
const (
	IngestCAM uint8 = iota
	IngestSensor
	IngestDENM
	IngestCPM
)

// LDMFuse codes.
const (
	FuseStored uint8 = iota
	FuseStale
)

// FaultEvent codes.
const (
	FaultBlackoutStart uint8 = iota
	FaultBlackoutEnd
	FaultNoiseStart
	FaultNoiseEnd
	FaultCrash
	FaultRestart
)

// Actuation codes.
const (
	ActStopCommand uint8 = iota
	ActHalt
)

// MailboxDrop codes: why a queued DENM left the mailbox undelivered.
const (
	// DropOldest is the bounded-mailbox eviction: a new arrival pushed
	// the oldest queued DENM out of a full mailbox.
	DropOldest uint8 = iota
	// DropShutdown is the graceful-exit drain.
	DropShutdown
)

// HTTPShed codes: why the overload guard refused an API request.
const (
	// ShedQueueFull: the endpoint's admission queue was at capacity.
	ShedQueueFull uint8 = iota
	// ShedQueueTimeout: the request waited in the admission queue past
	// the queue deadline without getting a concurrency slot.
	ShedQueueTimeout
	// ShedDeadline: the handler ran past the per-request deadline.
	ShedDeadline
)

// dccStateNames mirrors the reactive DCC profile's state names (kept
// here so radio can depend on flight without a cycle).
var dccStateNames = []string{"Relaxed", "Active1", "Active2", "Active3", "Restrictive"}

// CodeName renders an event's code field for the given kind ("" when
// the kind carries no code).
func CodeName(k Kind, code uint8) string {
	name := func(table []string) string {
		if int(code) < len(table) {
			return table[int(code)]
		}
		return "unknown"
	}
	switch k {
	case RadioDrop:
		return name([]string{"queue_full", "sinr", "blackout", "fault_burst_loss", "fault_corruption", "collision", "half_duplex"})
	case RadioRx, CAMRx, DENMRx, CPMRx:
		return name([]string{"ok", "malformed"})
	case DCCState:
		return name(dccStateNames)
	case LDMIngest:
		return name([]string{"cam", "sensor", "denm", "cpm"})
	case LDMFuse:
		return name([]string{"stored", "stale"})
	case WatchdogTrip:
		return name([]string{"degraded"})
	case FaultEvent:
		return name([]string{"blackout_start", "blackout_end", "noise_start", "noise_end", "crash", "restart"})
	case Actuation:
		return name([]string{"stop_command", "halt"})
	case MailboxDrop:
		return name([]string{"oldest", "shutdown"})
	case HTTPShed:
		return name([]string{"queue_full", "queue_timeout", "deadline"})
	}
	return ""
}

// StationID is a recorder-local handle for an interned station name.
// Zero means "no station" (e.g. an rx event with no known source).
type StationID uint16

// Event is one fixed-size recorded fact. A and B are kind-specific
// payloads (e.g. frame bytes, old DCC state, expired object counts).
type Event struct {
	Seq     uint64
	At      time.Duration
	Kind    Kind
	Code    uint8
	Station StationID
	Src     StationID
	A, B    int64
}

// ring is one station's bounded event buffer: a preallocated slab that
// overwrites its oldest entry when full.
type ring struct {
	buf     []Event
	head    int // index of the oldest event
	n       int
	dropped uint64 // overwritten (evicted) events
}

// DefaultCapacity is the per-station ring size when NewRecorder is
// given zero.
const DefaultCapacity = 256

// Recorder holds one run's (or one daemon's) per-station event rings.
// A recorder from NewRecorder serves one goroutine at a time; one from
// NewLockedRecorder is safe for concurrent use. The zero value is not
// usable. A nil *Recorder is a valid disabled recorder.
type Recorder struct {
	// mu serialises every method of a locked recorder; nil for a
	// single-writer one.
	mu       *sync.Mutex
	capacity int
	names    []string
	byName   map[string]StationID
	rings    []ring
	seq      uint64
}

// NewRecorder builds a recorder whose stations each keep the last
// `capacity` events (zero selects DefaultCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{capacity: capacity, byName: make(map[string]StationID)}
}

// NewLockedRecorder is NewRecorder for a recorder that several
// goroutines record into, or snapshot, at once: every method takes
// the recorder's mutex.
func NewLockedRecorder(capacity int) *Recorder {
	r := NewRecorder(capacity)
	r.mu = new(sync.Mutex)
	return r
}

func (r *Recorder) lock() {
	if r.mu != nil {
		r.mu.Lock()
	}
}

func (r *Recorder) unlock() {
	if r.mu != nil {
		r.mu.Unlock()
	}
}

// Hook interns a station name and returns the value-type handle the
// instrumented layer records through. The same name always maps to the
// same ring, so a station's radio interface and its facilities share
// one timeline. A nil recorder returns the zero Hook, which ignores
// every Record call.
func (r *Recorder) Hook(name string) Hook {
	if r == nil {
		return Hook{}
	}
	r.lock()
	defer r.unlock()
	id, ok := r.byName[name]
	if !ok {
		r.names = append(r.names, name)
		r.rings = append(r.rings, ring{buf: make([]Event, r.capacity)})
		id = StationID(len(r.names))
		r.byName[name] = id
	}
	return Hook{r: r, id: id}
}

// Reset returns the recorder to its initial observable state while
// keeping the interned station table and every ring's slab, so the
// campaign engine can pool recorders across attempts with no
// steady-state allocation: a reused recorder dumps bit-identically to
// a brand-new one (empty rings contribute no events and the sequence
// restarts at zero).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.lock()
	defer r.unlock()
	r.seq = 0
	for i := range r.rings {
		r.rings[i].head = 0
		r.rings[i].n = 0
		r.rings[i].dropped = 0
	}
}

// record appends one event into a preallocated slot, with zero heap
// allocations; only a locked recorder takes its mutex.
func (r *Recorder) record(at time.Duration, kind Kind, code uint8, st, src StationID, a, b int64) {
	r.lock()
	r.seq++
	rg := &r.rings[st-1]
	var slot *Event
	if rg.n < len(rg.buf) {
		i := rg.head + rg.n
		if i >= len(rg.buf) {
			i -= len(rg.buf)
		}
		slot = &rg.buf[i]
		rg.n++
	} else {
		slot = &rg.buf[rg.head]
		rg.head++
		if rg.head == len(rg.buf) {
			rg.head = 0
		}
		rg.dropped++
	}
	*slot = Event{Seq: r.seq, At: at, Kind: kind, Code: code, Station: st, Src: src, A: a, B: b}
	r.unlock()
}

// Hook is a station's recording handle: a two-word value the
// instrumented layers keep by value. The zero Hook ignores every call.
type Hook struct {
	r  *Recorder
	id StationID
}

// Enabled reports whether records through this hook go anywhere.
func (h Hook) Enabled() bool { return h.r != nil }

// Record appends one event stamped at the given (simulation) time.
func (h Hook) Record(at time.Duration, kind Kind, code uint8, a, b int64) {
	if h.r == nil {
		return
	}
	h.r.record(at, kind, code, h.id, 0, a, b)
}

// RecordFrom is Record with a source station (e.g. the transmitter of
// a received frame). src may be the zero Hook.
func (h Hook) RecordFrom(at time.Duration, kind Kind, code uint8, src Hook, a, b int64) {
	if h.r == nil {
		return
	}
	h.r.record(at, kind, code, h.id, src.id, a, b)
}

// EventRecord is the exported, human-readable form of one event.
type EventRecord struct {
	Seq     uint64 `json:"seq"`
	AtNS    int64  `json:"at_ns"`
	Station string `json:"station"`
	Kind    string `json:"kind"`
	Code    string `json:"code,omitempty"`
	Src     string `json:"src,omitempty"`
	A       int64  `json:"a,omitempty"`
	B       int64  `json:"b,omitempty"`
}

// Snapshot is an immutable, deterministic export of a recorder: every
// surviving event of every ring, in global sequence order.
type Snapshot struct {
	Events []EventRecord `json:"events"`
	// Evicted counts events overwritten by ring wraparound (they are
	// not in Events).
	Evicted uint64 `json:"evicted,omitempty"`
}

// Snapshot copies out the recorder's current state. Events are sorted
// by sequence number, which is a total order because the sequence
// counter is recorder-global.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.lock()
	total := 0
	for i := range r.rings {
		total += r.rings[i].n
		s.Evicted += r.rings[i].dropped
	}
	evs := make([]Event, 0, total)
	for i := range r.rings {
		rg := &r.rings[i]
		for j := 0; j < rg.n; j++ {
			evs = append(evs, rg.buf[(rg.head+j)%len(rg.buf)])
		}
	}
	names := r.names
	r.unlock()
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	if len(evs) == 0 {
		return s
	}
	stationName := func(id StationID) string {
		if id == 0 || int(id) > len(names) {
			return ""
		}
		return names[id-1]
	}
	s.Events = make([]EventRecord, len(evs))
	for i, ev := range evs {
		s.Events[i] = EventRecord{
			Seq:     ev.Seq,
			AtNS:    int64(ev.At),
			Station: stationName(ev.Station),
			Kind:    ev.Kind.String(),
			Code:    CodeName(ev.Kind, ev.Code),
			Src:     stationName(ev.Src),
			A:       ev.A,
			B:       ev.B,
		}
	}
	return s
}
