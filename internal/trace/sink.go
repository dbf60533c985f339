package trace

import (
	"time"

	"itsbed/internal/flight"
	"itsbed/internal/metrics"
	"itsbed/internal/tracing"
)

// Sink is the instrumentation one run (or one daemon) reports into:
// the metrics registry, the span tracer and the black-box flight
// recorder. A nil part is off. The testbed always has a registry and a
// recorder; the tracer stays nil unless tracing was asked for, since it
// costs a span per message and hop.
type Sink struct {
	Metrics *metrics.Registry
	Tracer  *tracing.Tracer
	Flight  *flight.Recorder
}

// Snapshot is the end-of-run copy of a Sink.
type Snapshot struct {
	// Metrics is the registry's snapshot.
	Metrics metrics.Snapshot
	// Spans holds every recorded span (empty when tracing was off).
	Spans tracing.Snapshot
	// Flight is the black-box snapshot: the newest structured events of
	// every station ring, in global order.
	Flight flight.Snapshot
}

// Reset returns every part to its initial observable state, so a
// pooled sink snapshots bit-identically to a fresh one.
func (s Sink) Reset() {
	s.Metrics.Reset()
	s.Tracer.Reset()
	s.Flight.Reset()
}

// Snapshot copies out every part.
func (s Sink) Snapshot() Snapshot {
	return Snapshot{Metrics: s.Metrics.Snapshot(), Spans: s.Tracer.Snapshot(), Flight: s.Flight.Snapshot()}
}

// Merge folds per-run snapshots into the sink in run order and returns
// the result: the runs' metrics add into s.Metrics (see
// metrics.Registry.Merge), and their spans come back rebased and tagged
// with their 1-based run index (tracing.MergeRuns). Run order, not the
// order runs finished in, fixes every sum, so the merge is identical
// for any worker count. Flight rings stay per run.
func (s Sink) Merge(runs []Snapshot) Snapshot {
	spans := make([]tracing.Snapshot, len(runs))
	for i, r := range runs {
		s.Metrics.Merge(r.Metrics)
		spans[i] = r.Spans
	}
	return Snapshot{Metrics: s.Metrics.Snapshot(), Spans: tracing.MergeRuns(spans)}
}

// StationLabel is the label every per-station metric family carries.
func StationLabel(name string) metrics.Label { return metrics.L("station", name) }

// Probe binds a Sink to one station: its metric families carry the
// station label, its flight events land in the station's ring, and its
// spans carry the station's name. Layers keep it by value; the zero
// Probe records nothing.
type Probe struct {
	// Hook records flight events into the station's ring (Record,
	// RecordFrom). It is embedded, not wrapped, so those calls inline
	// into the radio's per-receiver loops exactly as a bare Hook's do.
	flight.Hook
	sink Sink
	name string
}

// Probe returns the handle of station name, interning its flight ring.
func (s Sink) Probe(name string) Probe {
	return Probe{Hook: s.Flight.Hook(name), sink: s, name: name}
}

// Name is the station label.
func (p Probe) Name() string { return p.name }

// Sink is the run-level sink the probe reports into.
func (p Probe) Sink() Sink { return p.sink }

// Tracing reports whether spans go anywhere. Span calls are safe
// either way; callers check it only to skip work a span would need,
// such as formatting its identity key.
func (p Probe) Tracing() bool { return p.sink.Tracer != nil }

// Counter returns the station's counter name{station, labels...}, nil
// when metrics are off.
func (p Probe) Counter(name string, labels ...metrics.Label) *metrics.Counter {
	var buf [4]metrics.Label
	return p.sink.Metrics.Counter(name, p.labels(&buf, labels)...)
}

// Gauge returns the station's gauge name{station, labels...}, nil when
// metrics are off.
func (p Probe) Gauge(name string, labels ...metrics.Label) *metrics.Gauge {
	var buf [4]metrics.Label
	return p.sink.Metrics.Gauge(name, p.labels(&buf, labels)...)
}

// Histogram returns the station's latency histogram
// name{station, labels...}, nil when metrics are off.
func (p Probe) Histogram(name string, labels ...metrics.Label) *metrics.Histogram {
	var buf [4]metrics.Label
	return p.sink.Metrics.Histogram(name, p.labels(&buf, labels)...)
}

func (p Probe) labels(buf *[4]metrics.Label, extra []metrics.Label) []metrics.Label {
	return append(append(buf[:0], StationLabel(p.name)), extra...)
}

// Start opens a span of the station under the current span (see
// tracing.Tracer.Scope), or as a new trace root.
func (p Probe) Start(name, layer string, at time.Duration) *tracing.Span {
	return p.sink.Tracer.Start(name, layer, p.name, at)
}

// StartChild opens a span of the station under parent; a nil parent
// starts a new trace.
func (p Probe) StartChild(parent *tracing.Span, name, layer string, at time.Duration) *tracing.Span {
	return p.sink.Tracer.StartChild(parent, name, layer, p.name, at)
}

// Scope runs fn with sp as the current span.
func (p Probe) Scope(sp *tracing.Span, fn func()) { p.sink.Tracer.Scope(sp, fn) }

// Current returns the innermost span pushed by Scope, or nil.
func (p Probe) Current() *tracing.Span { return p.sink.Tracer.Current() }

// Bind associates an identity key with a span for a later Find.
func (p Probe) Bind(key string, sp *tracing.Span) { p.sink.Tracer.Bind(key, sp) }

// Find returns the span bound to key, or nil.
func (p Probe) Find(key string) *tracing.Span { return p.sink.Tracer.Find(key) }
