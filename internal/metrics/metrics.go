// Package metrics is a zero-dependency, simulation-aware metrics
// registry for the testbed: monotonic counters, gauges and fixed-bucket
// latency histograms, optionally labeled, collected per experiment run.
//
// Determinism is a design requirement: the parallel campaign engine
// gives every attempt its own kernel and therefore its own Registry;
// accepted runs' snapshots are merged in commit (attempt) order, so the
// merged output is bit-identical for any -workers value. To keep that
// property, instruments never consult wall-clock time or global state —
// all observed values come from the deterministic simulation kernel.
//
// All instrument methods are safe on nil receivers (they become no-ops)
// so instrumented code can run with metrics disabled at zero cost
// beyond a nil check, and safe for concurrent use so the wall-clock
// daemons (rsud/obud) can share a registry across goroutines.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key=value dimension of a metric family.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins instrument (float64).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add shifts the gauge by delta (negative deltas decrement) with a
// compare-and-swap loop, so concurrent adders never lose updates — the
// overload layer uses it for live in-flight and queue-depth gauges.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// SetMax ratchets the gauge up to v if v exceeds the current value.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets and keeps the
// exact sum, count, minimum and maximum. Units are seconds for latency
// histograms (use ObserveDuration).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // strictly increasing upper bounds; +Inf implicit
	counts []uint64  // len(bounds)+1, last is the overflow bucket
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// DefaultLatencyBuckets spans the sub-millisecond stack latencies up to
// the paper's 100 ms application deadline and beyond.
var DefaultLatencyBuckets = []float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
	250e-3, 500e-3, 1,
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[idx]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Registry holds one experiment's (or one daemon's) instruments.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
	// gen is the reuse generation. Reset bumps it instead of clearing
	// the map; entries from older generations are revived (zeroed) on
	// first lookup and skipped by Snapshot until then. This lets the
	// campaign engine pool registries across attempts without one
	// attempt's lazily-created families leaking into the next.
	gen uint64
	// buf is the scratch canonical key of the lookup in progress, so a
	// lookup that finds its family allocates nothing.
	buf []byte
}

type entry struct {
	key    string // canonical "name{k=v,...}" — cached for sorting
	name   string
	labels []Label
	gen    uint64
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Reset returns the registry to its initial observable state while
// keeping allocated families for reuse: every instrument reads as if
// freshly created, and Snapshot includes only families touched since
// the Reset. A pooled registry that is Reset between attempts therefore
// snapshots bit-identically to a brand-new one.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gen++
	r.mu.Unlock()
}

// revive zeroes the instruments of an entry first touched in an older
// generation. Caller holds r.mu.
func (e *entry) revive(gen uint64) {
	if e.gen == gen {
		return
	}
	e.gen = gen
	if e.c != nil {
		e.c.v.Store(0)
	}
	if e.g != nil {
		e.g.bits.Store(0)
	}
	if e.h != nil {
		e.h.mu.Lock()
		for i := range e.h.counts {
			e.h.counts[i] = 0
		}
		e.h.count = 0
		e.h.sum = 0
		e.h.min = 0
		e.h.max = 0
		e.h.mu.Unlock()
	}
}

// canonical copies labels into dst sorted by key, so the same family
// is reached regardless of argument order. Callers pass a stack array
// as dst; the insertion sort is stable and allocation-free.
func canonical(dst, labels []Label) []Label {
	ls := append(dst[:0], labels...)
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j].Key < ls[j-1].Key; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
	return ls
}

// appendKey appends the canonical key name{k=v,...} of name and the
// canonically ordered labels ls.
func appendKey(b []byte, name string, ls []Label) []byte {
	b = append(b, name...)
	if len(ls) == 0 {
		return b
	}
	b = append(b, '{')
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = append(b, l.Value...)
	}
	return append(b, '}')
}

// lookup returns the entry of name{labels...}, creating it if needed.
// Only an insert allocates (the key string and the owned label copy).
// Caller holds r.mu.
func (r *Registry) lookup(name string, labels []Label) *entry {
	var arr [4]Label
	ls := canonical(arr[:], labels)
	r.buf = appendKey(r.buf[:0], name, ls)
	if e, ok := r.entries[string(r.buf)]; ok {
		e.revive(r.gen)
		return e
	}
	e := &entry{key: string(r.buf), name: name, labels: append([]Label(nil), ls...), gen: r.gen}
	r.entries[e.key] = e
	return e
}

// Counter returns (creating if needed) the counter name{labels...}.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.lookup(name, labels)
	if e.c == nil {
		e.c = &Counter{}
	}
	return e.c
}

// Gauge returns (creating if needed) the gauge name{labels...}.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.lookup(name, labels)
	if e.g == nil {
		e.g = &Gauge{}
	}
	return e.g
}

// Histogram returns (creating if needed) the histogram name{labels...}
// with DefaultLatencyBuckets.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.HistogramBuckets(name, DefaultLatencyBuckets, labels...)
}

// HistogramBuckets is Histogram with explicit bucket upper bounds
// (which must be sorted ascending).
func (r *Registry) HistogramBuckets(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.lookup(name, labels)
	if e.h == nil {
		e.h = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	}
	return e.h
}

// CounterSample is one counter in a Snapshot.
type CounterSample struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  uint64  `json:"value"`
}

// GaugeSample is one gauge in a Snapshot.
type GaugeSample struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// HistogramSample is one histogram in a Snapshot.
type HistogramSample struct {
	Name   string    `json:"name"`
	Labels []Label   `json:"labels,omitempty"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	// P50/P95/P99 are bucket-interpolated quantile estimates, filled by
	// Snapshot so JSON consumers get them without re-deriving from the
	// buckets. Merge ignores them (it re-aggregates the raw buckets).
	P50 float64 `json:"p50,omitempty"`
	P95 float64 `json:"p95,omitempty"`
	P99 float64 `json:"p99,omitempty"`
}

// Mean returns Sum/Count (0 when empty).
func (h HistogramSample) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation within the containing bucket; the overflow bucket
// returns Max.
func (h HistogramSample) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum uint64
	lo := 0.0
	for i, c := range h.Counts {
		if c == 0 {
			if i < len(h.Bounds) {
				lo = h.Bounds[i]
			}
			continue
		}
		next := cum + c
		if float64(next) >= rank {
			if i >= len(h.Bounds) {
				return h.Max
			}
			hi := h.Bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum = next
		if i < len(h.Bounds) {
			lo = h.Bounds[i]
		}
	}
	return h.Max
}

// Snapshot is a point-in-time, JSON-serialisable copy of a Registry,
// with every section sorted deterministically by name then labels.
type Snapshot struct {
	Counters   []CounterSample   `json:"counters,omitempty"`
	Gauges     []GaugeSample     `json:"gauges,omitempty"`
	Histograms []HistogramSample `json:"histograms,omitempty"`
}

func sampleKey(name string, labels []Label) string {
	var arr [4]Label
	return string(appendKey(nil, name, canonical(arr[:], labels)))
}

// sized returns an empty slice with room for n values, or nil for none.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// carve copies v onto the end of the shared backing array *buf and
// returns the copy, capped so that appending to it reallocates.
func carve[T any](buf *[]T, v []T) []T {
	if len(v) == 0 {
		return nil
	}
	*buf = append(*buf, v...)
	return (*buf)[len(*buf)-len(v) : len(*buf) : len(*buf)]
}

// Snapshot copies the registry's current state. Only families touched
// since the last Reset are included, so a pooled, reused registry
// snapshots exactly like a fresh one. Each section, and the histograms'
// bucket bounds and counts, are copied into one allocation apiece.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	entries := make([]*entry, 0, len(r.entries))
	var nc, ng, nh, nb int
	for _, e := range r.entries {
		if e.gen != r.gen {
			continue
		}
		entries = append(entries, e)
		if e.c != nil {
			nc++
		}
		if e.g != nil {
			ng++
		}
		if e.h != nil {
			nh++
			nb += len(e.h.bounds)
		}
	}
	slices.SortFunc(entries, func(a, b *entry) int { return strings.Compare(a.key, b.key) })
	s.Counters, s.Gauges, s.Histograms = sized[CounterSample](nc), sized[GaugeSample](ng), sized[HistogramSample](nh)
	bounds, counts := sized[float64](nb), sized[uint64](nb+nh)
	for _, e := range entries {
		if e.c != nil {
			s.Counters = append(s.Counters, CounterSample{Name: e.name, Labels: e.labels, Value: e.c.Value()})
		}
		if e.g != nil {
			s.Gauges = append(s.Gauges, GaugeSample{Name: e.name, Labels: e.labels, Value: e.g.Value()})
		}
		if e.h != nil {
			e.h.mu.Lock()
			hs := HistogramSample{
				Name:   e.name,
				Labels: e.labels,
				Bounds: carve(&bounds, e.h.bounds),
				Counts: carve(&counts, e.h.counts),
				Count:  e.h.count,
				Sum:    e.h.sum,
				Min:    e.h.min,
				Max:    e.h.max,
			}
			e.h.mu.Unlock()
			hs.P50 = hs.Quantile(0.50)
			hs.P95 = hs.Quantile(0.95)
			hs.P99 = hs.Quantile(0.99)
			s.Histograms = append(s.Histograms, hs)
		}
	}
	return s
}

// Merge folds a snapshot into the registry: counters add, gauges keep
// the maximum, histograms (same bucket bounds) add bucket counts and
// sums and widen min/max. Calling Merge over accepted runs in attempt
// order yields the same result for any worker count, because float
// accumulation order is fixed by that order.
func (r *Registry) Merge(s Snapshot) {
	if r == nil {
		return
	}
	for _, cs := range s.Counters {
		r.Counter(cs.Name, cs.Labels...).Add(cs.Value)
	}
	for _, gs := range s.Gauges {
		r.Gauge(gs.Name, gs.Labels...).SetMax(gs.Value)
	}
	for _, hs := range s.Histograms {
		h := r.HistogramBuckets(hs.Name, hs.Bounds, hs.Labels...)
		h.mu.Lock()
		if len(h.counts) == len(hs.Counts) {
			for i, c := range hs.Counts {
				h.counts[i] += c
			}
			if hs.Count > 0 {
				if h.count == 0 || hs.Min < h.min {
					h.min = hs.Min
				}
				if h.count == 0 || hs.Max > h.max {
					h.max = hs.Max
				}
				h.count += hs.Count
				h.sum += hs.Sum
			}
		}
		h.mu.Unlock()
	}
}

// family names a sample's metric family, so find can search every
// Snapshot section the same way.
func (c CounterSample) family() (string, []Label)   { return c.Name, c.Labels }
func (g GaugeSample) family() (string, []Label)     { return g.Name, g.Labels }
func (h HistogramSample) family() (string, []Label) { return h.Name, h.Labels }

// find returns the sample of the family name{labels...}. It compares
// the name and the canonically ordered label pairs in place, so either
// side may list its labels in any order and nothing is allocated.
func find[S interface{ family() (string, []Label) }](samples []S, name string, labels []Label) (S, bool) {
	var want, got [4]Label
	ws := canonical(want[:], labels)
	for _, s := range samples {
		if n, ls := s.family(); n == name && slices.Equal(canonical(got[:], ls), ws) {
			return s, true
		}
	}
	var zero S
	return zero, false
}

// FindCounter looks up a counter sample by name and exact label set.
func (s Snapshot) FindCounter(name string, labels ...Label) (CounterSample, bool) {
	return find(s.Counters, name, labels)
}

// FindGauge looks up a gauge sample by name and exact label set.
func (s Snapshot) FindGauge(name string, labels ...Label) (GaugeSample, bool) {
	return find(s.Gauges, name, labels)
}

// FindHistogram looks up a histogram sample by name and exact label set.
func (s Snapshot) FindHistogram(name string, labels ...Label) (HistogramSample, bool) {
	return find(s.Histograms, name, labels)
}

// Format renders the snapshot as a fixed-width text report with one
// section per instrument kind. Output is deterministic.
func (s Snapshot) Format() string {
	var b strings.Builder
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "  %-58s %12d\n", sampleKey(c.Name, c.Labels), c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, g := range s.Gauges {
			fmt.Fprintf(&b, "  %-58s %12g\n", sampleKey(g.Name, g.Labels), g.Value)
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms (seconds):\n")
		for _, h := range s.Histograms {
			fmt.Fprintf(&b, "  %-58s n=%-7d mean=%.6f p50=%.6f p95=%.6f p99=%.6f min=%.6f max=%.6f\n",
				sampleKey(h.Name, h.Labels), h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Min, h.Max)
		}
	}
	return b.String()
}

// Handler serves the snapshot produced by src as indented JSON — the
// daemons' /metrics endpoint.
func Handler(src func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(src()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
