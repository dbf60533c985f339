package trace

import (
	"reflect"
	"testing"
	"time"

	"itsbed/internal/flight"
	"itsbed/internal/metrics"
	"itsbed/internal/tracing"
)

func fullSink() Sink {
	return Sink{Metrics: metrics.NewRegistry(), Tracer: tracing.New(), Flight: flight.NewRecorder(8)}
}

func TestZeroProbeRecordsNothing(t *testing.T) {
	var p Probe
	if p.Tracing() || p.Counter("x") != nil || p.Gauge("x") != nil || p.Histogram("x") != nil {
		t.Fatal("zero probe hands out instruments")
	}
	sp := p.Start("s", "l", time.Second)
	if sp != nil {
		t.Fatal("zero probe starts spans")
	}
	p.Record(time.Second, flight.RadioTx, 0, 1, 2)
	p.RecordFrom(time.Second, flight.RadioRx, flight.RxOK, flight.Hook{}, 1, 2)
	ran := false
	p.Scope(sp, func() { ran = true })
	if !ran || p.Current() != nil || p.Find("k") != nil {
		t.Fatal("zero probe scope/lookup misbehaves")
	}
	// A sink with only a recorder: spans and metrics stay off.
	q := Sink{Flight: flight.NewRecorder(4)}.Probe("obu")
	if q.Tracing() || q.Counter("x") != nil || q.Start("s", "l", 0) != nil {
		t.Fatal("recorder-only probe traces or counts")
	}
}

func TestProbeLabelsAndStampsTheStation(t *testing.T) {
	s := fullSink()
	p := s.Probe("rsu")
	p.Counter("tx_total", metrics.L("msg", "denm")).Add(2)
	p.Histogram("lat_seconds").Observe(0.5)
	p.Gauge("depth").Add(3)
	snap := s.Snapshot()
	if c, ok := snap.Metrics.FindCounter("tx_total", metrics.L("msg", "denm"), StationLabel("rsu")); !ok || c.Value != 2 {
		t.Fatalf("station counter = %+v %v", c, ok)
	}
	if _, ok := snap.Metrics.FindHistogram("lat_seconds", StationLabel("rsu")); !ok {
		t.Fatal("station histogram missing")
	}
	if len(snap.Metrics.Gauges) != 1 || !reflect.DeepEqual(snap.Metrics.Gauges[0].Labels, []metrics.Label{StationLabel("rsu")}) {
		t.Fatalf("station gauge = %+v", snap.Metrics.Gauges)
	}

	root := p.Start("root", "facilities", time.Millisecond)
	p.Bind("k", root)
	p.Scope(root, func() { p.Start("child", "stack", 2*time.Millisecond).End(3 * time.Millisecond) })
	p.StartChild(p.Find("k"), "late", "geonet", 4*time.Millisecond)
	root.End(5 * time.Millisecond)
	spans := s.Snapshot().Spans.Spans
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for _, rec := range spans {
		if rec.Station != "rsu" || rec.Trace != spans[0].ID {
			t.Fatalf("span %+v not in the station's trace", rec)
		}
	}

	// The radio and the facilities of one station share its ring.
	peer := s.Flight.Hook("obu")
	p.Record(time.Millisecond, flight.DENMTx, 0, 1, 1)
	s.Probe("rsu").RecordFrom(2*time.Millisecond, flight.RadioRx, flight.RxOK, peer, 100, 0)
	evs := s.Snapshot().Flight.Events
	if len(evs) != 2 || evs[0].Station != "rsu" || evs[1].Station != "rsu" || evs[1].Src != "obu" {
		t.Fatalf("flight events %+v", evs)
	}
}

func TestPooledSinkResetsLikeFresh(t *testing.T) {
	record := func(s Sink) Snapshot {
		p := s.Probe("obu")
		p.Counter("rx_total").Inc()
		p.Start("s", "l", time.Millisecond).End(2 * time.Millisecond)
		p.Record(time.Millisecond, flight.CAMRx, flight.RxOK, 7, 0)
		return s.Snapshot()
	}
	pooled := fullSink()
	pooled.Probe("rsu").Counter("stale_total").Inc()
	record(pooled)
	pooled.Reset()
	if got, want := record(pooled), record(fullSink()); !reflect.DeepEqual(got, want) {
		t.Fatalf("reset sink snapshots %+v, fresh %+v", got, want)
	}
}

func TestMergeInRunOrder(t *testing.T) {
	var runs []Snapshot
	for i := 1; i <= 3; i++ {
		s := fullSink()
		s.Probe("rsu").Counter("tx_total").Add(uint64(i))
		if i != 2 {
			s.Probe("rsu").Start("chain", "core", 0).End(time.Millisecond)
		}
		runs = append(runs, s.Snapshot())
	}
	into := Sink{Metrics: metrics.NewRegistry()}
	into.Metrics.Counter("campaign_total").Inc()
	got := into.Merge(runs)
	if c, _ := got.Metrics.FindCounter("tx_total", StationLabel("rsu")); c.Value != 6 {
		t.Fatalf("merged counter = %d, want 6", c.Value)
	}
	if _, ok := got.Metrics.FindCounter("campaign_total"); !ok {
		t.Fatal("merge dropped the sink's own families")
	}
	if len(got.Spans.Spans) != 2 || got.Spans.Spans[0].Run != 1 || got.Spans.Spans[1].Run != 3 || got.Spans.Spans[1].ID != 2 {
		t.Fatalf("merged spans = %+v", got.Spans.Spans)
	}
	if len(got.Flight.Events) != 0 {
		t.Fatal("merge folded flight rings")
	}

	untraced := Sink{Metrics: metrics.NewRegistry()}.Merge([]Snapshot{{}, {}})
	if untraced.Spans.Spans != nil {
		t.Fatalf("untraced merge has spans %+v", untraced.Spans)
	}
}
