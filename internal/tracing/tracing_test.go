package tracing

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestDeterministicIDs(t *testing.T) {
	build := func() Snapshot {
		tr := New()
		root := tr.StartChild(nil, "root", "core", "edge", 0)
		child := tr.StartChild(root, "child", "stack", "rsu", time.Millisecond)
		child.End(2 * time.Millisecond)
		root.End(3 * time.Millisecond)
		return tr.Snapshot()
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical builds differ:\n%v\n%v", a, b)
	}
	if a.Spans[0].ID != 1 || a.Spans[0].Trace != 1 {
		t.Fatalf("root should have ID == Trace == 1, got %+v", a.Spans[0])
	}
	if a.Spans[1].Parent != 1 || a.Spans[1].Trace != 1 {
		t.Fatalf("child should link to root: %+v", a.Spans[1])
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", "l", "s", 0)
	if sp != nil {
		t.Fatal("nil tracer must return nil spans")
	}
	sp.End(time.Second)
	sp.Drop(time.Second, "reason")
	sp.SetAttr("k", "v")
	if sp.TraceID() != 0 || sp.EndTime() != 0 {
		t.Fatal("nil span accessors must return zero")
	}
	ran := false
	tr.Scope(sp, func() { ran = true })
	if !ran {
		t.Fatal("Scope must run fn even when disabled")
	}
	tr.Bind("k", sp)
	if tr.Find("k") != nil || tr.Current() != nil {
		t.Fatal("nil tracer lookups must be empty")
	}
	if got := tr.Snapshot(); len(got.Spans) != 0 {
		t.Fatal("nil tracer snapshot must be empty")
	}
}

func TestScopeNesting(t *testing.T) {
	tr := New()
	outer := tr.Start("outer", "l", "s", 0)
	var inner *Span
	tr.Scope(outer, func() {
		inner = tr.Start("inner", "l", "s", time.Millisecond)
	})
	if inner.parent != outer.id {
		t.Fatalf("inner span should be child of scoped span, parent=%d", inner.parent)
	}
	if tr.Current() != nil {
		t.Fatal("stack should be empty after Scope returns")
	}
}

func TestBindFind(t *testing.T) {
	tr := New()
	sp := tr.Start("a", "l", "s", 0)
	tr.Bind(KeyDENM("rsu", 1001, 7), sp)
	if tr.Find(KeyDENM("rsu", 1001, 7)) != sp {
		t.Fatal("Find should return the bound span")
	}
	if tr.Find(KeyDENM("obu", 1001, 7)) != nil {
		t.Fatal("keys must be station-scoped")
	}
}

func TestEndFirstWins(t *testing.T) {
	tr := New()
	sp := tr.Start("a", "l", "s", 0)
	sp.End(time.Millisecond)
	sp.End(5 * time.Millisecond)
	rec := tr.Snapshot().Spans[0]
	if rec.End != time.Millisecond {
		t.Fatalf("first End should win, got %v", rec.End)
	}
	if rec.Duration() != time.Millisecond {
		t.Fatalf("duration = %v", rec.Duration())
	}
}

func TestDropRecordsReason(t *testing.T) {
	tr := New()
	sp := tr.Start("a", "radio", "obu", 0)
	sp.Drop(time.Millisecond, "sinr")
	rec := tr.Snapshot().Spans[0]
	if !rec.Ended || rec.Attr(AttrDropReason) != "sinr" {
		t.Fatalf("drop not recorded: %+v", rec)
	}
}

func TestTake(t *testing.T) {
	tr := New()
	a := tr.StartChild(nil, "a", "l", "s", 0)
	tr.StartChild(a, "b", "l", "s", 0)
	c := tr.StartChild(nil, "c", "l", "s", 0)
	tr.Bind("ka", a)
	tr.Bind("kc", c)
	got := tr.Take(nil, a)
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" || got[1].Parent != got[0].ID {
		t.Fatalf("Take returned %+v", got)
	}
	if kept := tr.Snapshot().Spans; len(kept) != 1 || kept[0].Name != "c" || kept[0].Trace != c.TraceID() {
		t.Fatalf("tracer should keep the other trace, holds %+v", kept)
	}
	if tr.Find("ka") != nil {
		t.Fatal("binds of the taken trace must be removed")
	}
	if tr.Find("kc") != c {
		t.Fatal("binds of other traces must survive")
	}
}

func TestMergeRunsRebasesIDs(t *testing.T) {
	mk := func() Snapshot {
		tr := New()
		root := tr.StartChild(nil, "root", "l", "s", 0)
		tr.StartChild(root, "child", "l", "s", 0)
		return tr.Snapshot()
	}
	merged := MergeRuns([]Snapshot{mk(), mk()})
	if len(merged.Spans) != 4 {
		t.Fatalf("want 4 spans, got %d", len(merged.Spans))
	}
	second := merged.Spans[2]
	if second.Run != 2 || second.ID != 3 || second.Trace != 3 {
		t.Fatalf("second run not rebased: %+v", second)
	}
	if merged.Spans[3].Parent != 3 {
		t.Fatalf("child parent not rebased: %+v", merged.Spans[3])
	}
	if merged.Spans[0].Run != 1 {
		t.Fatalf("first run should be tagged 1: %+v", merged.Spans[0])
	}
}

func TestFilterTraces(t *testing.T) {
	tr := New()
	keep := tr.StartChild(nil, "denm.chain", "core", "edge", 0)
	tr.StartChild(keep, "child", "l", "s", 0)
	tr.StartChild(nil, "ca.generate", "facilities", "rsu", 0)
	got := tr.Snapshot().FilterTraces(func(root SpanRecord) bool {
		return root.Name == "denm.chain"
	})
	if len(got.Spans) != 2 {
		t.Fatalf("want the chain's 2 spans, got %d", len(got.Spans))
	}
	for _, rec := range got.Spans {
		if rec.Trace != keep.TraceID() {
			t.Fatalf("unexpected trace in filter output: %+v", rec)
		}
	}
}

func TestRingEvictsOldest(t *testing.T) {
	tr, r := New(), NewRing(2)
	for i := 0; i < 3; i++ {
		r.Retire(tr, tr.StartChild(nil, "x", "l", "s", 0))
	}
	got := servedPage(t, r).Traces
	if len(got) != 2 {
		t.Fatalf("ring should hold 2 traces, got %d", len(got))
	}
	if got[0].Spans[0].Trace != 2 || got[1].Spans[0].Trace != 3 {
		t.Fatalf("oldest trace should be evicted: %+v", got)
	}
	r.Retire(tr, nil) // ignored
	if page := servedPage(t, r); len(page.Traces) != 2 || page.Total != 3 {
		t.Fatalf("empty retires must be ignored, page=%+v", page)
	}
}

func TestRingHandler(t *testing.T) {
	tr, r := New(), NewRing(4)
	sp := tr.StartChild(nil, "openc2x.rx_frame", "openc2x", "s", 0)
	sp.End(0)
	r.Retire(tr, sp)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var page struct {
		Capacity int `json:"capacity"`
		Total    uint64
		Traces   []TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("response is not JSON: %v", err)
	}
	if page.Capacity != 4 || len(page.Traces) != 1 {
		t.Fatalf("unexpected page: %+v", page)
	}
}

// TestRingHandlerMatchesFreshEncoder requires the handler's pooled
// encoder to serve the bytes a fresh indenting encoder writes, for
// pages of different sizes served in turn from concurrent requests.
func TestRingHandlerMatchesFreshEncoder(t *testing.T) {
	tr := New()
	rings := []*Ring{nil, NewRing(2), NewRing(3), NewRing(16)}
	for i, r := range rings[2:] {
		for j := 0; j < 5+20*i; j++ {
			root := tr.StartChild(nil, "root", "core", "edge", time.Duration(j)*time.Millisecond)
			for k := 0; k < j%4; k++ {
				c := tr.StartChild(root, "child", "stack", fmt.Sprintf("s%d", k), time.Duration(j+k)*time.Millisecond)
				c.SetAttr("k", fmt.Sprint(j*k))
				c.End(time.Duration(j+k+1) * time.Millisecond)
			}
			root.End(time.Duration(j+5) * time.Millisecond)
			r.Retire(tr, root)
		}
	}
	want := make([][]byte, len(rings))
	for i, r := range rings {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r.page()); err != nil {
			t.Fatal(err)
		}
		want[i] = buf.Bytes()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := (g + k) % len(rings)
				rec := httptest.NewRecorder()
				rings[i].Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
				if !bytes.Equal(rec.Body.Bytes(), want[i]) {
					errs <- fmt.Errorf("ring %d, request %d: served\n%s\nwant\n%s", i, k, rec.Body.Bytes(), want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// servedPage decodes what the ring's /trace handler serves.
func servedPage(t *testing.T, r *Ring) ringPage {
	t.Helper()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	var page ringPage
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("response is not JSON: %v", err)
	}
	return page
}

// TraceID returns the span's trace identifier (zero for nil).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.trace
}
