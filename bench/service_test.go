package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToQueuedRequests stalls one request on a
// single connection: the requests due while it stalls queue behind it,
// and since latency runs from the due time, each is charged the wait.
// Timed from when a worker took them up, they would look fast.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		n     = 12
		rate  = 200 // one request every 5 ms
		stall = 60 * time.Millisecond
	)
	ts, late := openLoop(n, rate, 1, func(k int) error {
		if k == 2 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(ts) != n || len(late) != n {
		t.Fatalf("got %d timings, %d lateness samples, want %d", len(ts), len(late), n)
	}
	for k, tm := range ts {
		if tm.k != k || tm.err != nil {
			t.Fatalf("request %d: %+v", k, tm)
		}
	}
	// Request 3 was due 5 ms after request 2 and waited for the rest of
	// its 60 ms stall.
	if got := ts[3].latency(); got < stall-10*time.Millisecond {
		t.Errorf("request 3 behind the stall: latency %v, want ≥ %v", got, stall-10*time.Millisecond)
	}
	if got := ts[3].done.Sub(ts[3].picked); got > stall/2 {
		t.Errorf("request 3 itself took %v; the wait belongs before it was picked up", got)
	}
	if got := ts[1].latency(); got > stall/2 {
		t.Errorf("request 1, due before the stall, has latency %v", got)
	}
	// The schedule does not wait for the system: requests due during
	// the stall were handed out on time, though the worker was busy.
	for k, l := range late {
		if l > stall/2 {
			t.Errorf("request %d handed out %v late; the stall held up the schedule", k, l)
		}
	}
}

func TestClosedLoopStopsAtLimit(t *testing.T) {
	var calls atomic.Int64
	ts := closedLoop(2, 50, time.Now().Add(time.Hour), func(k int) error {
		calls.Add(1)
		return nil
	})
	if len(ts) != 50 || calls.Load() != 50 {
		t.Fatalf("closed loop sent %d requests (%d timings), want 50", calls.Load(), len(ts))
	}
	seen := map[int]bool{}
	for _, tm := range ts {
		seen[tm.k] = true
	}
	if len(seen) != 50 {
		t.Errorf("request indices repeat: %d distinct of 50", len(seen))
	}
}

func TestRequestMix(t *testing.T) {
	counts := map[string]int{}
	for k := 0; k < 20000; k++ {
		rq := requestFor(7, 1, k)
		if rq != requestFor(7, 1, k) {
			t.Fatal("requestFor is not a function of its arguments")
		}
		if rq.station < 1 || rq.station > serviceStations {
			t.Fatalf("station %d out of range", rq.station)
		}
		counts[rq.endpoint]++
	}
	for ep, share := range map[string]float64{"trigger_denm": 0.4, "request_denm": 0.4, "metrics": 0.1, "trace": 0.1} {
		if got := float64(counts[ep]) / 20000; got < share-0.02 || got > share+0.02 {
			t.Errorf("%s drawn %.3f of the time, want %.1f", ep, got, share)
		}
	}
	if requestFor(7, 1, 0) == requestFor(8, 1, 0) && requestFor(7, 1, 1) == requestFor(8, 1, 1) {
		t.Error("the seed does not change the requests")
	}
}

func TestCheckBody(t *testing.T) {
	for _, c := range []struct {
		endpoint, body string
		ok             bool
	}{
		{"trigger_denm", `{"ok":true}`, true},
		{"trigger_denm", `{"ok":`, false},
		{"request_denm", `[]`, true},
		{"request_denm", `[{"originatingStationID":3}]`, true},
		{"request_denm", `null`, false},
		{"request_denm", `{"ok":true}`, false},
		{"request_denm", `[{"originatingStationID":0}]`, false},
		{"metrics", `{"counters":[]}`, true},
		{"trace", `not json`, false},
	} {
		err := checkBody(c.endpoint, []byte(c.body))
		if (err == nil) != c.ok {
			t.Errorf("checkBody(%s, %s) = %v, want ok=%v", c.endpoint, c.body, err, c.ok)
		}
	}
}
