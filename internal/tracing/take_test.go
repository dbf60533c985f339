package tracing

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// refTracer is the full-scan tracer Take replaced, kept as the
// reference its contract is checked against: spans in creation order,
// and Take(trace) scans every held span and every bind.
type refTracer struct {
	nextID uint64
	spans  []*refSpan
	binds  map[string]*refSpan
}

type refSpan struct{ rec SpanRecord }

func newRefTracer() *refTracer { return &refTracer{binds: make(map[string]*refSpan)} }

func (t *refTracer) reset() {
	t.nextID = 0
	t.spans = nil
	clear(t.binds)
}

func (t *refTracer) startChild(parent *refSpan, name string, at time.Duration) *refSpan {
	t.nextID++
	s := &refSpan{rec: SpanRecord{ID: t.nextID, Name: name, Layer: "l", Station: "s", Start: at}}
	if parent != nil {
		s.rec.Parent = parent.rec.ID
		s.rec.Trace = parent.rec.Trace
	} else {
		s.rec.Trace = s.rec.ID
	}
	t.spans = append(t.spans, s)
	return s
}

func (s *refSpan) end(at time.Duration) {
	if !s.rec.Ended {
		s.rec.End, s.rec.Ended = at, true
	}
}

func (s *refSpan) setAttr(key, value string) {
	for i, a := range s.rec.Attrs {
		if a.Key == key {
			s.rec.Attrs[i].Value = value
			return
		}
	}
	s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Value: value})
}

func (s *refSpan) record() SpanRecord {
	rec := s.rec
	if len(rec.Attrs) > 0 {
		rec.Attrs = append([]Attr(nil), rec.Attrs...)
	}
	return rec
}

func (t *refTracer) snapshot() Snapshot {
	out := Snapshot{Spans: make([]SpanRecord, len(t.spans))}
	for i, s := range t.spans {
		out.Spans[i] = s.record()
	}
	return out
}

func (t *refTracer) take(trace uint64) []SpanRecord {
	var taken []SpanRecord
	kept := t.spans[:0]
	for _, s := range t.spans {
		if s.rec.Trace == trace {
			taken = append(taken, s.record())
		} else {
			kept = append(kept, s)
		}
	}
	t.spans = kept
	for k, s := range t.binds {
		if s.rec.Trace == trace {
			delete(t.binds, k)
		}
	}
	return taken
}

// TestTakeMatchesFullScan runs seeded interleavings of StartChild,
// End, SetAttr, Bind, Find, Take, Snapshot and Reset through the
// tracer and the full-scan reference and requires identical results.
// Parents are drawn from every span started since the last Reset,
// taken ones included, so children of taken spans are exercised.
func TestTakeMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, ref := New(), newRefTracer()
		var spans []*Span
		var refs []*refSpan
		index := make(map[*Span]int)
		refIndex := make(map[*refSpan]int)
		keys := []string{"a", "b", "c", "d", "e"}
		// Every Take result, checked again at the end: later calls on
		// taken spans must not reach records already returned.
		var taken, refTaken [][]SpanRecord
		for step := 0; step < 600; step++ {
			at := time.Duration(step) * time.Millisecond
			switch op := rng.Intn(100); {
			case op < 35 || len(spans) == 0:
				name := fmt.Sprintf("s%d", step)
				var s *Span
				var r *refSpan
				if len(spans) > 0 && rng.Intn(3) > 0 {
					i := rng.Intn(len(spans))
					s = tr.StartChild(spans[i], name, "l", "s", at)
					r = ref.startChild(refs[i], name, at)
				} else {
					s = tr.StartChild(nil, name, "l", "s", at)
					r = ref.startChild(nil, name, at)
				}
				index[s], refIndex[r] = len(spans), len(refs)
				spans, refs = append(spans, s), append(refs, r)
			case op < 45:
				i := rng.Intn(len(spans))
				spans[i].End(at)
				refs[i].end(at)
			case op < 52:
				i := rng.Intn(len(spans))
				k, v := keys[rng.Intn(2)], fmt.Sprint(step)
				spans[i].SetAttr(k, v)
				refs[i].setAttr(k, v)
			case op < 62:
				i, k := rng.Intn(len(spans)), keys[rng.Intn(len(keys))]
				tr.Bind(k, spans[i])
				ref.binds[k] = refs[i]
			case op < 70:
				k := keys[rng.Intn(len(keys))]
				got, want := tr.Find(k), ref.binds[k]
				gi, gok := index[got]
				wi, wok := refIndex[want]
				if gok != wok || gi != wi {
					t.Fatalf("seed %d step %d: Find(%q) = span %d (%v), reference span %d (%v)", seed, step, k, gi, gok, wi, wok)
				}
			case op < 90:
				i := rng.Intn(len(spans))
				// Half the takes append behind a record already in dst.
				var dst []SpanRecord
				if rng.Intn(2) == 0 {
					dst = []SpanRecord{{Name: "prefix"}}
				}
				got, want := tr.Take(dst, spans[i]), append(dst, ref.take(refs[i].rec.Trace)...)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: Take = %+v\nreference %+v", seed, step, got, want)
				}
				taken, refTaken = append(taken, got), append(refTaken, want)
			case op < 98:
				if got, want := tr.Snapshot(), ref.snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: Snapshot = %+v\nreference %+v", seed, step, got, want)
				}
			default:
				// Spans started before a Reset are dead handles.
				tr.Reset()
				ref.reset()
				spans, refs = spans[:0], refs[:0]
				clear(index)
				clear(refIndex)
			}
		}
		if got, want := tr.Snapshot(), ref.snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: final Snapshot = %+v\nreference %+v", seed, got, want)
		}
		if !reflect.DeepEqual(taken, refTaken) {
			t.Fatalf("seed %d: records returned by Take changed afterwards", seed)
		}
	}
}

// TestTakeIgnoresSpansFromBeforeReset: a span started before a Reset
// is not held, even when a new span has reused its ID.
func TestTakeIgnoresSpansFromBeforeReset(t *testing.T) {
	tr := New()
	old := tr.StartChild(nil, "old", "l", "s", 0)
	tr.Reset()
	fresh := tr.StartChild(nil, "fresh", "l", "s", 0)
	if old.TraceID() != fresh.TraceID() {
		t.Fatalf("IDs did not restart: old %d, fresh %d", old.TraceID(), fresh.TraceID())
	}
	if got := tr.Take(nil, old); got != nil {
		t.Fatalf("Take through a span from before Reset returned %+v", got)
	}
	if snap := tr.Snapshot().Spans; len(snap) != 1 || snap[0].Name != "fresh" {
		t.Fatalf("Snapshot = %+v, want the fresh span", snap)
	}
}

// TestTakeCollectsChildOfTakenRoot pins the case the cycle must keep:
// a span started under an already-taken root belongs to the root's
// trace, stays in Snapshot, and a later Take collects it.
func TestTakeCollectsChildOfTakenRoot(t *testing.T) {
	tr := New()
	root := tr.StartChild(nil, "root", "l", "s", 0)
	tr.StartChild(root, "early", "l", "s", 0)
	other := tr.StartChild(nil, "other", "l", "s", 0)
	if got := tr.Take(nil, root); len(got) != 2 {
		t.Fatalf("first Take returned %d spans, want 2", len(got))
	}
	late := tr.StartChild(root, "late", "l", "s", time.Millisecond)
	tr.Bind("late", late)
	if snap := tr.Snapshot().Spans; len(snap) != 2 || snap[0].Name != "other" || snap[1].Name != "late" {
		t.Fatalf("Snapshot = %+v, want other then late", snap)
	}
	got := tr.Take(nil, root)
	if len(got) != 1 || got[0].Name != "late" || got[0].Trace != root.TraceID() || got[0].Parent != got[0].Trace {
		t.Fatalf("second Take returned %+v, want the late child", got)
	}
	if tr.Find("late") != nil {
		t.Fatal("the late child's bind must go with its trace")
	}
	if snap := tr.Snapshot().Spans; len(snap) != 1 || snap[0].ID != other.id {
		t.Fatalf("Snapshot = %+v, want only the other trace", snap)
	}
}

// TestTakeVisitsOnlyItsTrace counts the spans one Take touches: with
// 10,000 spans of other traces held, taking a two-span trace visits
// two spans.
func TestTakeVisitsOnlyItsTrace(t *testing.T) {
	tr := New()
	for i := 0; i < 5000; i++ {
		root := tr.StartChild(nil, "other", "l", "s", 0)
		tr.StartChild(root, "other.child", "l", "s", 0)
		tr.Bind(fmt.Sprint("other", i), root)
	}
	root := tr.StartChild(nil, "mine", "l", "s", 0)
	child := tr.StartChild(root, "mine.child", "l", "s", 0)
	tr.Bind("mine", child)
	got, visited := tr.take(nil, child)
	if len(got) != 2 || got[0].Name != "mine" || got[1].Name != "mine.child" {
		t.Fatalf("Take returned %+v", got)
	}
	if visited != 2 {
		t.Fatalf("Take visited %d spans, want 2", visited)
	}
	if n := len(tr.Snapshot().Spans); n != 10000 {
		t.Fatalf("tracer holds %d spans after Take, want 10000", n)
	}
	if tr.Find("mine") != nil || tr.Find("other0") == nil {
		t.Fatal("Take must drop its own binds and only those")
	}
}

// TestTakeKeepsTracerCompact: spans taken in the order they started
// leave no slots behind, so a daemon's tracer stays at the size of
// its open traces.
func TestTakeKeepsTracerCompact(t *testing.T) {
	tr := New()
	var open []*Span
	for i := 0; i < 10000; i++ {
		root := tr.StartChild(nil, "rx", "l", "s", 0)
		open = append(open, tr.StartChild(root, "mailbox", "l", "s", 0))
		if len(open) > 256 {
			tr.Take(nil, open[0])
			open = open[1:]
		}
	}
	tr.mu.Lock()
	slots, held := len(tr.spans), len(tr.spans)-tr.head
	tr.mu.Unlock()
	if held != 2*256 || slots > 4*256 {
		t.Fatalf("tracer keeps %d slots for %d live spans, want 512 live in at most 1024", slots, held)
	}
}

// TestSpanSizeClass pins Span to the 96-byte allocation size class:
// a daemon holds two spans per queued DENM.
func TestSpanSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Span{}); size > 96 {
		t.Fatalf("Span is %d bytes, want at most 96", size)
	}
}
