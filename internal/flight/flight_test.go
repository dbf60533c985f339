package flight

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestNilRecorderAndZeroHookAreNoOps(t *testing.T) {
	var r *Recorder
	h := r.Hook("anything")
	if h.Enabled() {
		t.Fatal("hook from nil recorder reports enabled")
	}
	// None of these may panic.
	h.Record(time.Second, RadioTx, 0, 1, 2)
	h.RecordFrom(time.Second, RadioRx, RxOK, Hook{}, 1, 2)
	r.Reset()
	if got := r.Snapshot(); len(got.Events) != 0 {
		t.Fatalf("nil recorder snapshot has %d events", len(got.Events))
	}
}

func TestRecordAndSnapshotOrder(t *testing.T) {
	r := NewRecorder(8)
	a := r.Hook("rsu")
	b := r.Hook("obu")
	a.Record(1*time.Millisecond, DENMTx, 0, 7, 1)
	b.RecordFrom(2*time.Millisecond, DENMRx, RxOK, a, 7, 1)
	a.Record(3*time.Millisecond, RadioDrop, DropQueueFull, 0, 0)
	s := r.Snapshot()
	if len(s.Events) != 3 {
		t.Fatalf("got %d events, want 3", len(s.Events))
	}
	for i, ev := range s.Events {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	if s.Events[1].Station != "obu" || s.Events[1].Src != "rsu" {
		t.Errorf("rx event station/src = %q/%q", s.Events[1].Station, s.Events[1].Src)
	}
	if s.Events[2].Kind != "radio.drop" || s.Events[2].Code != "queue_full" {
		t.Errorf("drop event = %+v", s.Events[2])
	}
}

func TestSameNameSharesOneRing(t *testing.T) {
	r := NewRecorder(4)
	h1 := r.Hook("rsu")
	h2 := r.Hook("rsu")
	// Both hooks write one 4-slot ring: six events evict two.
	for i := 0; i < 3; i++ {
		h1.Record(time.Duration(2*i), RadioTx, 0, 0, 0)
		h2.Record(time.Duration(2*i+1), RadioRx, RxOK, 0, 0)
	}
	s := r.Snapshot()
	if len(s.Events) != 4 || s.Evicted != 2 {
		t.Fatalf("shared ring holds %d events, evicted %d; want 4, 2", len(s.Events), s.Evicted)
	}
	for _, ev := range s.Events {
		if ev.Station != "rsu" {
			t.Fatalf("event %+v not on the rsu ring", ev)
		}
	}
}

func TestRingOverflowEvictsOldest(t *testing.T) {
	r := NewRecorder(4)
	h := r.Hook("st")
	for i := 0; i < 10; i++ {
		h.Record(time.Duration(i)*time.Millisecond, CAMTx, 0, int64(i), 0)
	}
	s := r.Snapshot()
	if len(s.Events) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(s.Events))
	}
	if s.Evicted != 6 {
		t.Fatalf("evicted = %d, want 6", s.Evicted)
	}
	// The survivors are the newest four, still in order.
	for i, ev := range s.Events {
		if want := int64(6 + i); ev.A != want {
			t.Errorf("survivor %d has A=%d, want %d", i, ev.A, want)
		}
	}
}

// TestPooledResetMatchesFresh pins the pooling contract: a recorder
// that has seen arbitrary traffic and is Reset snapshots bit-
// identically to a brand-new recorder fed the same events.
func TestPooledResetMatchesFresh(t *testing.T) {
	feed := func(r *Recorder) Snapshot {
		a := r.Hook("rsu")
		b := r.Hook("veh")
		a.Record(time.Millisecond, DENMTx, 0, 1, 1)
		b.RecordFrom(2*time.Millisecond, DENMRx, RxOK, a, 1, 1)
		for i := 0; i < 500; i++ { // force wraparound
			b.Record(time.Duration(i)*time.Microsecond, RadioRx, RxOK, int64(i), 0)
		}
		return r.Snapshot()
	}
	pooled := NewRecorder(64)
	feed(pooled)
	feed(pooled)
	pooled.Reset()
	got := feed(pooled)
	want := feed(NewRecorder(64))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("pooled+Reset recorder snapshot differs from fresh recorder")
	}
}

// TestLockedRecorderMatchesSingleWriter: the lock changes nothing a
// snapshot shows.
func TestLockedRecorderMatchesSingleWriter(t *testing.T) {
	feed := func(r *Recorder) Snapshot {
		a := r.Hook("rsu")
		b := r.Hook("veh")
		for i := 0; i < 100; i++ {
			a.Record(time.Duration(i)*time.Millisecond, DENMTx, 0, int64(i), 1)
			b.RecordFrom(time.Duration(i)*time.Millisecond, DENMRx, RxOK, a, int64(i), 1)
		}
		r.Reset()
		b.Record(time.Second, Actuation, ActHalt, 0, 0)
		return r.Snapshot()
	}
	if got, want := feed(NewLockedRecorder(16)), feed(NewRecorder(16)); !reflect.DeepEqual(got, want) {
		t.Fatalf("locked recorder snapshot %+v, single-writer %+v", got, want)
	}
}

func TestWriteJSONLRoundTrips(t *testing.T) {
	r := NewRecorder(8)
	h := r.Hook("rsu")
	h.Record(time.Millisecond, FaultEvent, FaultBlackoutStart, 0, 0)
	h.Record(2*time.Millisecond, WatchdogTrip, 0, 0, 0)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL has %d lines, want 2", len(lines))
	}
	var ev EventRecord
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "fault" || ev.Code != "blackout_start" {
		t.Errorf("first line decodes to %+v", ev)
	}
}

func TestTimelineRendering(t *testing.T) {
	r := NewRecorder(8)
	rsu := r.Hook("rsu")
	veh := r.Hook("veh")
	rsu.Record(1500*time.Microsecond, DENMTx, 0, 9, 3)
	veh.RecordFrom(2500*time.Microsecond, RadioDrop, DropBurstLoss, rsu, 0, 0)
	veh.Record(3*time.Millisecond, DCCState, 1, 0, 0)
	out := Timeline(r.Snapshot())
	for _, want := range []string{
		"flight recorder: 3 events",
		"denm.tx",
		"action=9:3",
		"reason=fault_burst_loss from=rsu",
		"Relaxed->Active1",
		"1.500",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// Deterministic: rendering twice is identical.
	if out != Timeline(r.Snapshot()) {
		t.Error("timeline is not deterministic")
	}
}

func TestTimelineEmpty(t *testing.T) {
	out := Timeline(Snapshot{})
	if !strings.Contains(out, "0 events") {
		t.Errorf("empty timeline = %q", out)
	}
}

func TestHandlerServesJSON(t *testing.T) {
	r := NewRecorder(8)
	r.Hook("rsu").Record(time.Millisecond, CAMTx, 0, 1, 0)
	srv := httptest.NewServer(Handler(r.Snapshot))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Events) != 1 || snap.Events[0].Kind != "cam.tx" {
		t.Errorf("served snapshot = %+v", snap)
	}
}

func TestAppendAllocatesNothing(t *testing.T) {
	r := NewRecorder(64)
	h := r.Hook("st")
	src := r.Hook("other")
	got := testing.AllocsPerRun(1000, func() {
		h.Record(time.Millisecond, RadioTx, 0, 128, 0)
		h.RecordFrom(time.Millisecond, RadioRx, RxOK, src, 128, 0)
	})
	if got != 0 {
		t.Fatalf("append allocates %.1f per op, want 0", got)
	}
}

// TestConcurrentRecordIsSafe writes one locked recorder from four
// goroutines; under -race it pins NewLockedRecorder's lock.
func TestConcurrentRecordIsSafe(t *testing.T) {
	r := NewLockedRecorder(32)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			h := r.Hook("daemon")
			for i := 0; i < 1000; i++ {
				h.Record(time.Duration(i), RadioTx, 0, int64(g), 0)
			}
			done <- struct{}{}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if n := len(r.Snapshot().Events); n != 32 {
		t.Fatalf("ring holds %d, want 32", n)
	}
}
