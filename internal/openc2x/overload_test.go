package openc2x

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"itsbed/internal/flight"
	"itsbed/internal/metrics"
	"itsbed/internal/trace"
)

func testGuard(lim Limits) (*guard, *metrics.Registry) {
	reg := metrics.NewRegistry()
	rec := flight.NewLockedRecorder(64)
	return newGuard("test", lim, trace.Sink{Metrics: reg, Flight: rec}.Probe("test"), time.Now()), reg
}

// TestGuardShedsWhenQueueFull: with one slot and a zero queue, a
// second concurrent request sheds immediately with 429 + Retry-After.
func TestGuardShedsWhenQueueFull(t *testing.T) {
	g, reg := testGuard(Limits{MaxConcurrent: 1, MaxQueue: -1, RetryAfter: 2 * time.Second})
	block := make(chan struct{})
	entered := make(chan struct{})
	h := g.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-block
		w.WriteHeader(http.StatusOK)
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	first := make(chan error, 1)
	go func() {
		resp, err := http.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
		}
		first <- err
	}()
	<-entered

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want seconds >= 1", resp.Header.Get("Retry-After"))
	}
	close(block)
	if err := <-first; err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	shed, _ := snap.FindCounter("shed_total", metrics.L("endpoint", "test"), metrics.L("reason", "queue_full"))
	if shed.Value != 1 {
		t.Fatalf("shed_total{queue_full} = %d, want 1", shed.Value)
	}
}

// TestGuardQueueTimeout: a queued request that never gets a slot within
// QueueTimeout sheds with 429.
func TestGuardQueueTimeout(t *testing.T) {
	g, reg := testGuard(Limits{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 30 * time.Millisecond})
	block := make(chan struct{})
	entered := make(chan struct{})
	h := g.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-block
		w.WriteHeader(http.StatusOK)
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	defer close(block)

	go func() {
		resp, err := http.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	began := time.Now()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queued request status %d, want 429", resp.StatusCode)
	}
	if waited := time.Since(began); waited < 20*time.Millisecond {
		t.Fatalf("shed after %v, should have queued for ~30ms first", waited)
	}
	snap := reg.Snapshot()
	shed, _ := snap.FindCounter("shed_total", metrics.L("endpoint", "test"), metrics.L("reason", "queue_timeout"))
	if shed.Value != 1 {
		t.Fatalf("shed_total{queue_timeout} = %d, want 1", shed.Value)
	}
}

// TestGuardDeadline503: a handler outliving the per-request deadline is
// answered 503 and accounted as a deadline shed.
func TestGuardDeadline503(t *testing.T) {
	g, reg := testGuard(Limits{RequestTimeout: 30 * time.Millisecond})
	release := make(chan struct{})
	h := g.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	defer close(release)

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("wedged handler status %d, want 503", resp.StatusCode)
	}
	snap := reg.Snapshot()
	shed, _ := snap.FindCounter("shed_total", metrics.L("endpoint", "test"), metrics.L("reason", "deadline"))
	if shed.Value != 1 {
		t.Fatalf("shed_total{deadline} = %d, want 1", shed.Value)
	}
}

// TestGuardAdmitsUnderLimit: happy-path requests flow through with
// accounting but no sheds.
func TestGuardAdmitsUnderLimit(t *testing.T) {
	g, reg := testGuard(Limits{MaxConcurrent: 8})
	h := g.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()

	snap := reg.Snapshot()
	reqs, _ := snap.FindCounter("overload_requests_total", metrics.L("endpoint", "test"))
	if reqs.Value != 20 {
		t.Fatalf("requests %d, want 20", reqs.Value)
	}
	for _, reason := range []string{"queue_full", "queue_timeout", "deadline"} {
		if c, _ := snap.FindCounter("shed_total", metrics.L("endpoint", "test"), metrics.L("reason", reason)); c.Value != 0 {
			t.Fatalf("shed_total{%s} = %d, want 0", reason, c.Value)
		}
	}
	lat, ok := snap.FindHistogram("overload_request_seconds", metrics.L("endpoint", "test"))
	if !ok || lat.Count != 20 {
		t.Fatalf("latency histogram count %d, want 20", lat.Count)
	}
}
