package tracing

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRingWrapsAroundManyTimes drives the ring far past its capacity
// with traces of one to three spans and checks the wraparound
// bookkeeping: the newest cap traces survive in order and intact,
// although Retire reuses evicted traces' storage, and total/dropped
// account for every Retire exactly.
func TestRingWrapsAroundManyTimes(t *testing.T) {
	const capacity, adds = 4, 100
	tr, r := New(), NewRing(capacity)
	var roots []uint64
	for i := 0; i < adds; i++ {
		root := tr.StartChild(nil, "wrap", "l", "s", 0)
		for j := 0; j < i%3; j++ {
			tr.StartChild(root, "child", "l", "s", 0).End(0)
		}
		root.End(0)
		roots = append(roots, root.TraceID())
		r.Retire(tr, root)
	}
	got := servedPage(t, r).Traces
	if len(got) != capacity {
		t.Fatalf("ring holds %d traces after %d adds, want %d", len(got), adds, capacity)
	}
	for k, trace := range got {
		i := adds - capacity + k
		if len(trace.Spans) != 1+i%3 {
			t.Fatalf("slot %d holds %d spans, want %d", k, len(trace.Spans), 1+i%3)
		}
		for _, rec := range trace.Spans {
			if rec.Trace != roots[i] {
				t.Fatalf("slot %d holds a span of trace %d, want %d (oldest-first order broken)", k, rec.Trace, roots[i])
			}
		}
	}
	r.mu.Lock()
	total, dropped := r.total, r.dropped
	r.mu.Unlock()
	if total != adds || dropped != adds-capacity {
		t.Fatalf("total=%d dropped=%d, want %d/%d", total, dropped, adds, adds-capacity)
	}
}

// TestRingConcurrentAddKeepsInvariants hammers Retire from several
// goroutines: whatever the interleaving, the ring must never exceed
// its capacity and total must equal retires.
func TestRingConcurrentAddKeepsInvariants(t *testing.T) {
	const capacity, workers, perWorker = 8, 4, 50
	tr, r := New(), NewRing(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Retire(tr, tr.StartChild(nil, "c", "l", "s", 0))
			}
		}()
	}
	wg.Wait()
	if n := len(servedPage(t, r).Traces); n != capacity {
		t.Fatalf("ring len %d, want %d", n, capacity)
	}
	r.mu.Lock()
	total, dropped := r.total, r.dropped
	r.mu.Unlock()
	if total != workers*perWorker {
		t.Fatalf("total=%d, want %d", total, workers*perWorker)
	}
	if dropped != total-capacity {
		t.Fatalf("dropped=%d, want %d", dropped, total-capacity)
	}
}

// TestWaterfallZeroDurationSpan pins the rendering of an instant span:
// the duration column reads 0.000 ms and the bar still paints exactly
// one cell, so the span remains visible on the timeline.
func TestWaterfallZeroDurationSpan(t *testing.T) {
	snap := Snapshot{Spans: []SpanRecord{
		{Trace: 1, ID: 1, Name: "root", Layer: "l", Station: "st",
			Start: 0, End: 10 * time.Millisecond, Ended: true},
		{Trace: 1, ID: 2, Parent: 1, Name: "instant", Layer: "l", Station: "st",
			Start: 5 * time.Millisecond, End: 5 * time.Millisecond, Ended: true},
	}}
	out := Waterfall(snap)
	line := findLine(t, out, "instant")
	if !strings.Contains(line, "0.000 ms") {
		t.Fatalf("zero-duration span should read 0.000 ms:\n%s", line)
	}
	if got := strings.Count(barOf(t, line), "="); got != 1 {
		t.Fatalf("zero-duration span should paint exactly one bar cell, got %d:\n%s", got, line)
	}
}

// TestWaterfallUnfinishedSpan pins the rendering of a span that never
// ended: the duration column shows the ellipsis marker and the bar
// paints a single cell at the span's start.
func TestWaterfallUnfinishedSpan(t *testing.T) {
	snap := Snapshot{Spans: []SpanRecord{
		{Trace: 1, ID: 1, Name: "root", Layer: "l", Station: "st",
			Start: 0, End: 20 * time.Millisecond, Ended: true},
		{Trace: 1, ID: 2, Parent: 1, Name: "open", Layer: "l", Station: "st",
			Start: 15 * time.Millisecond, Ended: false},
	}}
	out := Waterfall(snap)
	line := findLine(t, out, "open")
	if !strings.Contains(line, "…") {
		t.Fatalf("unfinished span should carry the … marker:\n%s", line)
	}
	if got := strings.Count(barOf(t, line), "="); got != 1 {
		t.Fatalf("unfinished span should paint exactly one bar cell, got %d:\n%s", got, line)
	}
}

// TestWaterfallUnfinishedRootExtent covers a trace whose only span
// never ended: the extent degenerates to the minimum and rendering
// must not divide by zero or panic.
func TestWaterfallUnfinishedRootExtent(t *testing.T) {
	snap := Snapshot{Spans: []SpanRecord{
		{Trace: 1, ID: 1, Name: "hung", Layer: "l", Station: "st", Start: 0, Ended: false},
	}}
	out := Waterfall(snap)
	if !strings.Contains(out, "hung") || !strings.Contains(out, "…") {
		t.Fatalf("unfinished root not rendered:\n%s", out)
	}
}

// findLine returns the first output line mentioning name.
func findLine(t *testing.T, out, name string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, name) && strings.Contains(line, "|") {
			return line
		}
	}
	t.Fatalf("no waterfall row for %q in:\n%s", name, out)
	return ""
}

// barOf extracts the |...| timeline cell content of a waterfall row.
func barOf(t *testing.T, line string) string {
	t.Helper()
	i := strings.Index(line, "|")
	j := strings.LastIndex(line, "|")
	if i < 0 || j <= i {
		t.Fatalf("row has no timeline bar: %s", line)
	}
	return line[i+1 : j]
}
