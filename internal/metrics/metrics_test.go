package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("frames_total", L("station", "rsu"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels in any label order reaches the same instrument.
	same := r.Counter("frames_total", L("station", "rsu"))
	if same != c {
		t.Fatal("same family returned a different counter")
	}
	other := r.Counter("frames_total", L("station", "obu"))
	if other == c {
		t.Fatal("different labels returned the same counter")
	}
	if other.Value() != 0 {
		t.Fatalf("fresh counter = %d, want 0", other.Value())
	}
}

func TestLabelOrderCanonicalised(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", L("a", "1"), L("b", "2"))
	b := r.Counter("x", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label order created distinct families")
	}
	a.Add(2)
	r.Gauge("y", L("b", "2"), L("a", "1")).Set(3)
	r.Histogram("z", L("a", "1"), L("b", "2")).Observe(0.5)

	// Find matches a family whatever order either side lists its labels.
	s := r.Snapshot()
	if c, ok := s.FindCounter("x", L("b", "2"), L("a", "1")); !ok || c.Value != 2 {
		t.Fatalf("FindCounter reversed order = %+v %v, want value 2", c, ok)
	}
	if g, ok := s.FindGauge("y", L("a", "1"), L("b", "2")); !ok || g.Value != 3 {
		t.Fatalf("FindGauge sorted order = %+v %v, want value 3", g, ok)
	}
	if h, ok := s.FindHistogram("z", L("b", "2"), L("a", "1")); !ok || h.Count != 1 {
		t.Fatalf("FindHistogram reversed order = %+v %v, want count 1", h, ok)
	}
	// Unsorted sample labels (a hand-built snapshot) still match.
	hand := Snapshot{Counters: []CounterSample{{Name: "x", Labels: []Label{L("b", "2"), L("a", "1")}, Value: 9}}}
	if c, ok := hand.FindCounter("x", L("a", "1"), L("b", "2")); !ok || c.Value != 9 {
		t.Fatalf("FindCounter on unsorted sample labels = %+v %v, want value 9", c, ok)
	}
	for _, miss := range [][]Label{
		nil,
		{L("a", "1")},
		{L("a", "1"), L("b", "3")},
		{L("a", "1"), L("c", "2")},
		{L("a", "1"), L("b", "2"), L("c", "3")},
	} {
		if c, ok := s.FindCounter("x", miss...); ok {
			t.Fatalf("FindCounter(x, %v) matched %+v", miss, c)
		}
	}
	if _, ok := s.FindCounter("y", L("a", "1"), L("b", "2")); ok {
		t.Fatal("FindCounter matched a gauge family")
	}
	if _, ok := s.FindGauge("x", L("a", "1"), L("b", "2")); ok {
		t.Fatal("FindGauge matched a counter family")
	}
}

// TestLookupOfExistingFamilyAllocatesNothing pins the interning: once a
// registry holds a family, reaching it again (in either label order),
// merging a snapshot into a registry that already holds its families,
// and searching a snapshot allocate nothing.
func TestLookupOfExistingFamilyAllocatesNothing(t *testing.T) {
	// Keys longer than 32 bytes, so a string built from the scratch
	// buffer could not hide in the runtime's stack temporary.
	r := NewRegistry()
	r.Counter("frames_total", L("kind", "cam"), L("station", "rsu")).Inc()
	r.Gauge("queue_depth_frames", L("kind", "cam"), L("station", "rsu")).Set(1)
	r.Histogram("access_delay_seconds", L("kind", "cam"), L("station", "rsu")).Observe(0.001)
	snap := r.Snapshot()
	into := NewRegistry()
	into.Merge(snap)

	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Counter sorted", func() { r.Counter("frames_total", L("kind", "cam"), L("station", "rsu")).Inc() }},
		{"Counter reversed", func() { r.Counter("frames_total", L("station", "rsu"), L("kind", "cam")).Inc() }},
		{"Gauge sorted", func() { r.Gauge("queue_depth_frames", L("kind", "cam"), L("station", "rsu")).Set(2) }},
		{"Gauge reversed", func() { r.Gauge("queue_depth_frames", L("station", "rsu"), L("kind", "cam")).Set(2) }},
		{"Histogram sorted", func() { r.Histogram("access_delay_seconds", L("kind", "cam"), L("station", "rsu")).Observe(0.002) }},
		{"Histogram reversed", func() { r.Histogram("access_delay_seconds", L("station", "rsu"), L("kind", "cam")).Observe(0.002) }},
		{"Merge", func() { into.Merge(snap) }},
		{"FindCounter reversed", func() { snap.FindCounter("frames_total", L("station", "rsu"), L("kind", "cam")) }},
		{"FindGauge", func() { snap.FindGauge("queue_depth_frames", L("kind", "cam"), L("station", "rsu")) }},
		{"FindHistogram miss", func() { snap.FindHistogram("access_delay_seconds", L("station", "obu"), L("kind", "cam")) }},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, got)
		}
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(3)
	g.SetMax(2) // must not regress
	if g.Value() != 3 {
		t.Fatalf("gauge = %g, want 3", g.Value())
	}
	g.SetMax(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %g, want 7", g.Value())
	}
}

func TestGaugeAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("inflight")
	g.Add(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("gauge = %g, want 3", g.Value())
	}
	var nilGauge *Gauge
	nilGauge.Add(1) // nil receiver is a no-op, not a panic
}

// TestGaugeAddConcurrent: the CAS loop must not lose updates when many
// goroutines increment and decrement at once (live in-flight counting
// on the overload hot path).
func TestGaugeAddConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("inflight")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if g.Value() != 0 {
		t.Fatalf("gauge = %g after balanced adds, want 0", g.Value())
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("lat", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.002, 0.02, 0.5} {
		h.Observe(v)
	}
	s, ok := r.Snapshot().FindHistogram("lat")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	wantCounts := []uint64{1, 1, 1, 1} // one per bucket incl. overflow
	if !reflect.DeepEqual(s.Counts, wantCounts) {
		t.Fatalf("counts = %v, want %v", s.Counts, wantCounts)
	}
	if s.Min != 0.0005 || s.Max != 0.5 {
		t.Fatalf("min/max = %g/%g, want 0.0005/0.5", s.Min, s.Max)
	}
	if got, want := s.Mean(), (0.0005+0.002+0.02+0.5)/4; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean = %g, want %g", got, want)
	}
}

func TestHistogramBucketBoundaryInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("lat", []float64{1, 2})
	h.Observe(1) // exactly on a bound lands in that bucket
	s, _ := r.Snapshot().FindHistogram("lat")
	if s.Counts[0] != 1 {
		t.Fatalf("counts = %v, want value 1 in bucket <=1", s.Counts)
	}
}

func TestObserveDuration(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	h.ObserveDuration(1500 * time.Microsecond)
	s, _ := r.Snapshot().FindHistogram("lat")
	if math.Abs(s.Sum-0.0015) > 1e-12 {
		t.Fatalf("sum = %g, want 0.0015", s.Sum)
	}
}

func TestQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("lat", []float64{1, 2, 3, 4})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%4) + 0.5)
	}
	s, _ := r.Snapshot().FindHistogram("lat")
	p50 := s.Quantile(0.50)
	if p50 < 1 || p50 > 3 {
		t.Fatalf("p50 = %g, want within [1, 3]", p50)
	}
	if p100 := s.Quantile(1); p100 < 3 {
		t.Fatalf("p100 = %g, want >= 3", p100)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.SetMax(2)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	r.Merge(Snapshot{})
}

func TestSnapshotSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Inc()
	r.Counter("a_total", L("station", "rsu")).Inc()
	r.Counter("a_total", L("station", "obu")).Inc()
	s := r.Snapshot()
	var names []string
	for _, c := range s.Counters {
		k := c.Name
		for _, l := range c.Labels {
			k += "|" + l.Value
		}
		names = append(names, k)
	}
	want := []string{"a_total|obu", "a_total|rsu", "b_total"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("snapshot order = %v, want %v", names, want)
	}
	if !reflect.DeepEqual(r.Snapshot(), s) {
		t.Fatal("consecutive snapshots of an idle registry differ")
	}
}

func TestMergeSemantics(t *testing.T) {
	run1 := NewRegistry()
	run1.Counter("sent_total").Add(3)
	run1.Gauge("depth_max").SetMax(2)
	run1.HistogramBuckets("lat", []float64{1, 2}).Observe(0.5)

	run2 := NewRegistry()
	run2.Counter("sent_total").Add(4)
	run2.Gauge("depth_max").SetMax(5)
	run2.HistogramBuckets("lat", []float64{1, 2}).Observe(1.5)

	merged := NewRegistry()
	merged.Merge(run1.Snapshot())
	merged.Merge(run2.Snapshot())
	s := merged.Snapshot()

	if c, _ := s.FindCounter("sent_total"); c.Value != 7 {
		t.Fatalf("merged counter = %d, want 7", c.Value)
	}
	if g, _ := s.FindGauge("depth_max"); g.Value != 5 {
		t.Fatalf("merged gauge = %g, want 5", g.Value)
	}
	h, _ := s.FindHistogram("lat")
	if h.Count != 2 || h.Min != 0.5 || h.Max != 1.5 {
		t.Fatalf("merged histogram = count %d min %g max %g, want 2/0.5/1.5", h.Count, h.Min, h.Max)
	}
	if !reflect.DeepEqual(h.Counts, []uint64{1, 1, 0}) {
		t.Fatalf("merged counts = %v, want [1 1 0]", h.Counts)
	}
}

func TestMergeOrderIndependentForIntegers(t *testing.T) {
	a := NewRegistry()
	a.Counter("c").Add(1)
	b := NewRegistry()
	b.Counter("c").Add(2)

	ab := NewRegistry()
	ab.Merge(a.Snapshot())
	ab.Merge(b.Snapshot())
	ba := NewRegistry()
	ba.Merge(b.Snapshot())
	ba.Merge(a.Snapshot())
	if !reflect.DeepEqual(ab.Snapshot(), ba.Snapshot()) {
		t.Fatal("integer-only merge should commute")
	}
}

func TestFormatDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Counter("z_total").Add(9)
		r.Counter("a_total", L("station", "rsu")).Add(1)
		r.Gauge("depth").Set(3)
		r.Histogram("lat", L("station", "obu")).Observe(0.002)
		return r.Snapshot().Format()
	}
	one, two := build(), build()
	if one != two {
		t.Fatal("Format not deterministic across identical registries")
	}
	for _, want := range []string{"a_total{station=rsu}", "z_total", "depth", "lat{station=obu}"} {
		if !strings.Contains(one, want) {
			t.Fatalf("Format output missing %q:\n%s", want, one)
		}
	}
}

func TestHandlerServesJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("sent_total").Add(3)
	srv := httptest.NewServer(Handler(func() Snapshot { return r.Snapshot() }))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if c, ok := s.FindCounter("sent_total"); !ok || c.Value != 3 {
		t.Fatalf("served snapshot = %+v", s)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").SetMax(float64(j))
				r.Histogram("h").Observe(float64(j) / 1000)
				// Labelled lookups share the registry's key scratch
				// buffer; both label orders must reach one family.
				st := L("station", fmt.Sprint(j%4))
				r.Counter("lc", L("kind", "cam"), st).Inc()
				r.Counter("lc", st, L("kind", "cam")).Inc()
				r.Histogram("lh", st, L("kind", "denm")).Observe(0.001)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	s := r.Snapshot()
	if h, _ := s.FindHistogram("h"); h.Count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count)
	}
	for i := 0; i < 4; i++ {
		st := L("station", fmt.Sprint(i))
		if c, _ := s.FindCounter("lc", st, L("kind", "cam")); c.Value != 4000 {
			t.Fatalf("lc{station=%d} = %d, want 4000", i, c.Value)
		}
		if h, _ := s.FindHistogram("lh", L("kind", "denm"), st); h.Count != 2000 {
			t.Fatalf("lh{station=%d} count = %d, want 2000", i, h.Count)
		}
	}
	if len(s.Counters) != 5 || len(s.Histograms) != 5 {
		t.Fatalf("families: %d counters, %d histograms, want 5 and 5", len(s.Counters), len(s.Histograms))
	}
}

func TestResetClearsAllInstruments(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_total").Add(7)
	r.Gauge("depth").Set(3)
	r.Histogram("latency_ms").Observe(12)
	pre := r.Snapshot()
	if len(pre.Counters) != 1 || len(pre.Gauges) != 1 || len(pre.Histograms) != 1 {
		t.Fatalf("pre-reset snapshot = %+v, want one of each", pre)
	}
	r.Reset()
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("post-reset snapshot not empty: %+v", s)
	}
	// Re-looked-up instruments start from zero again.
	if v := r.Counter("frames_total").Value(); v != 0 {
		t.Fatalf("revived counter = %d, want 0", v)
	}
	if v := r.Gauge("depth").Value(); v != 0 {
		t.Fatalf("revived gauge = %g, want 0", v)
	}
	// Only the revived counter and gauge should appear, both zero.
	s := r.Snapshot()
	for _, c := range s.Counters {
		if c.Value != 0 {
			t.Fatalf("revived counter carries state: %+v", c)
		}
	}
	for _, g := range s.Gauges {
		if g.Value != 0 {
			t.Fatalf("revived gauge carries state: %+v", g)
		}
	}
	if len(s.Histograms) != 0 {
		t.Fatalf("histogram revived without lookup: %+v", s.Histograms)
	}
}

func TestResetStaleHandleExcludedFromSnapshot(t *testing.T) {
	r := NewRegistry()
	stale := r.Counter("attempt_work")
	stale.Add(5)
	r.Reset()
	// A handle held across Reset without re-lookup belongs to the old
	// generation: its writes must not leak into the new snapshot.
	stale.Add(99)
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("stale-generation writes leaked into snapshot: %+v", s)
	}
	// Re-lookup revives the family at zero and shares the entry, so
	// current-generation writes are visible again.
	fresh := r.Counter("attempt_work")
	if fresh.Value() != 0 {
		t.Fatalf("revived counter = %d, want 0", fresh.Value())
	}
	fresh.Inc()
	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Value != 1 {
		t.Fatalf("snapshot after revival = %+v, want single counter at 1", s)
	}
}

// TestResetSnapshotMatchesFreshRegistry is the pooling contract: a
// reused registry replaying a workload must be indistinguishable from a
// brand-new registry running the same workload.
func TestResetSnapshotMatchesFreshRegistry(t *testing.T) {
	workload := func(r *Registry) {
		r.Counter("rx_total", L("station", "obu")).Add(3)
		r.Counter("rx_total", L("station", "rsu")).Add(9)
		r.Gauge("queue_depth").SetMax(4)
		h := r.Histogram("e2e_ms")
		for _, v := range []float64{1.5, 80, 250, 3.25} {
			h.Observe(v)
		}
	}
	reused := NewRegistry()
	// Pollute with a different first-attempt workload.
	reused.Counter("rx_total", L("station", "obu")).Add(1000)
	reused.Counter("drops_total").Add(17)
	reused.Histogram("e2e_ms").Observe(99999)
	reused.Reset()
	workload(reused)

	fresh := NewRegistry()
	workload(fresh)

	got, want := reused.Snapshot(), fresh.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reused registry snapshot diverges from fresh:\n got %+v\nwant %+v", got, want)
	}
	if got.Format() != want.Format() {
		t.Fatal("formatted output diverges between reused and fresh registry")
	}
}
