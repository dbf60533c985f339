package tracing

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRingWrapsAroundManyTimes drives the ring far past its capacity
// and checks the wraparound bookkeeping: the newest cap traces survive
// in order, and total/dropped account for every Add exactly.
func TestRingWrapsAroundManyTimes(t *testing.T) {
	const capacity, adds = 4, 100
	r := NewRing(capacity)
	for i := 1; i <= adds; i++ {
		r.Add([]SpanRecord{{Trace: uint64(i), ID: uint64(i), Name: "wrap", Ended: true}})
	}
	got := servedPage(t, r).Traces
	if len(got) != capacity {
		t.Fatalf("ring holds %d traces after %d adds, want %d", len(got), adds, capacity)
	}
	for i, tr := range got {
		want := uint64(adds - capacity + 1 + i)
		if tr.Spans[0].Trace != want {
			t.Fatalf("slot %d holds trace %d, want %d (oldest-first order broken)", i, tr.Spans[0].Trace, want)
		}
	}
	r.mu.Lock()
	total, dropped := r.total, r.dropped
	r.mu.Unlock()
	if total != adds || dropped != adds-capacity {
		t.Fatalf("total=%d dropped=%d, want %d/%d", total, dropped, adds, adds-capacity)
	}
}

// TestRingConcurrentAddKeepsInvariants hammers Add from several
// goroutines: whatever the interleaving, the ring must never exceed
// its capacity and total must equal adds.
func TestRingConcurrentAddKeepsInvariants(t *testing.T) {
	const capacity, workers, perWorker = 8, 4, 50
	r := NewRing(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Add([]SpanRecord{{Trace: uint64(w*perWorker + i + 1), ID: 1, Name: "c"}})
			}
		}(w)
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
