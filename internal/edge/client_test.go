package edge

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"itsbed/internal/openc2x"
)

// scriptedServer answers each request from a status script; after the
// script runs out it answers 200 with an empty trigger response.
func scriptedServer(t *testing.T, script []int, retryAfter string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := int(calls.Add(1)) - 1
		if i < len(script) {
			if retryAfter != "" && (script[i] == 429 || script[i] == 503) {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(script[i])
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ok":true,"originatingStationID":1001,"sequenceNumber":7}`))
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

// fakeClock provides deterministic Now/Sleep for the retry logic.
type fakeClock struct {
	now    time.Time
	slept  []time.Duration
	asleep time.Duration
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1700000000, 0)}
}

func (c *fakeClock) Now() time.Time { return c.now.Add(c.asleep) }
func (c *fakeClock) Sleep(d time.Duration) {
	c.slept = append(c.slept, d)
	c.asleep += d
}

func newTestClient(url string, clk *fakeClock) *Client {
	c := &Client{
		BaseURL:          url,
		BreakerThreshold: -1, // breaker off unless the test wants it
	}
	if clk != nil {
		c.Now = clk.Now
		c.Sleep = clk.Sleep
	}
	return c
}

func TestClientRetries(t *testing.T) {
	cases := []struct {
		name       string
		script     []int
		retryAfter string
		maxAtt     int
		deadline   time.Duration
		wantErr    bool
		wantCalls  int64
		wantStatus int
		// wantSleeps, when non-nil, asserts the exact backoff waits.
		wantSleeps []time.Duration
	}{
		{
			name:      "success first try",
			script:    nil,
			wantCalls: 1,
		},
		{
			name:      "retries 429 then succeeds",
			script:    []int{429, 429},
			wantCalls: 3,
		},
		{
			name:       "honours retry-after hint",
			script:     []int{429},
			retryAfter: "2",
			wantCalls:  2,
			deadline:   10 * time.Second,
			wantSleeps: []time.Duration{2 * time.Second},
		},
		{
			name:      "retries 503",
			script:    []int{503},
			wantCalls: 2,
		},
		{
			name:       "does not retry 400",
			script:     []int{400},
			wantErr:    true,
			wantCalls:  1,
			wantStatus: 400,
		},
		{
			name:       "does not retry 500",
			script:     []int{500},
			wantErr:    true,
			wantCalls:  1,
			wantStatus: 500,
		},
		{
			name:      "attempts exhausted",
			script:    []int{429, 429, 429, 429},
			maxAtt:    3,
			wantErr:   true,
			wantCalls: 3,
		},
		{
			name:       "retry deadline beats retry-after",
			script:     []int{429, 429},
			retryAfter: "30", // hint far beyond the total deadline
			deadline:   time.Second,
			wantErr:    true,
			wantCalls:  1, // second attempt never starts
			wantSleeps: []time.Duration{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, calls := scriptedServer(t, tc.script, tc.retryAfter)
			clk := newFakeClock()
			c := newTestClient(srv.URL, clk)
			c.MaxAttempts = tc.maxAtt
			c.RetryDeadline = tc.deadline
			_, err := c.TriggerDENM(context.Background(), openc2x.TriggerRequest{CauseCode: 97})
			if tc.wantErr != (err != nil) {
				t.Fatalf("err = %v, wantErr %v", err, tc.wantErr)
			}
			if calls.Load() != tc.wantCalls {
				t.Fatalf("calls = %d, want %d", calls.Load(), tc.wantCalls)
			}
			if tc.wantStatus != 0 {
				var se *StatusError
				if !errors.As(err, &se) || se.Status != tc.wantStatus {
					t.Fatalf("err = %v, want StatusError %d", err, tc.wantStatus)
				}
			}
			if tc.wantSleeps != nil {
				if len(clk.slept) != len(tc.wantSleeps) {
					t.Fatalf("sleeps %v, want %v", clk.slept, tc.wantSleeps)
				}
				for i, want := range tc.wantSleeps {
					if clk.slept[i] != want {
						t.Fatalf("sleep[%d] = %v, want %v", i, clk.slept[i], want)
					}
				}
			}
		})
	}
}

func TestClientBackoffDoublesAndCaps(t *testing.T) {
	srv, _ := scriptedServer(t, []int{429, 429, 429, 429}, "")
	clk := newFakeClock()
	c := newTestClient(srv.URL, clk)
	c.MaxAttempts = 5
	c.BaseBackoff = 10 * time.Millisecond
	c.MaxBackoff = 25 * time.Millisecond
	c.RetryDeadline = time.Minute
	if _, err := c.TriggerDENM(context.Background(), openc2x.TriggerRequest{}); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond, 25 * time.Millisecond}
	if len(clk.slept) != len(want) {
		t.Fatalf("sleeps %v, want %v", clk.slept, want)
	}
	for i := range want {
		if clk.slept[i] != want[i] {
			t.Fatalf("sleep[%d] = %v, want %v", i, clk.slept[i], want[i])
		}
	}
}

func TestClientCircuitBreaker(t *testing.T) {
	// Server always errors with a non-retryable status so each logical
	// request fails in one attempt.
	srv, calls := scriptedServer(t, []int{500, 500, 500, 500, 500, 500, 500, 500, 500, 500}, "")
	clk := newFakeClock()
	c := &Client{
		BaseURL:          srv.URL,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Second,
		Now:              clk.Now,
		Sleep:            clk.Sleep,
	}
	ctx := context.Background()

	// Three consecutive failures trip the breaker.
	for i := 0; i < 3; i++ {
		if _, err := c.TriggerDENM(ctx, openc2x.TriggerRequest{}); err == nil {
			t.Fatal("expected failure")
		}
	}
	if c.openedAt.IsZero() {
		t.Fatal("breaker should be open after 3 failures")
	}
	netCalls := calls.Load()

	// While open, calls fail fast without touching the network.
	if _, err := c.TriggerDENM(ctx, openc2x.TriggerRequest{}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if calls.Load() != netCalls {
		t.Fatal("open breaker still hit the network")
	}

	// After the cooldown, a half-open probe goes out; the scripted 500
	// re-opens the circuit.
	clk.now = clk.now.Add(2 * time.Second)
	if _, err := c.TriggerDENM(ctx, openc2x.TriggerRequest{}); err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("probe should reach the network and fail: %v", err)
	}
	if calls.Load() != netCalls+1 {
		t.Fatalf("probe calls = %d, want %d", calls.Load(), netCalls+1)
	}
	if c.openedAt.IsZero() {
		t.Fatal("failed probe should re-open the breaker")
	}

	// A successful probe closes it again (script exhausted -> 200).
	clk.now = clk.now.Add(2 * time.Second)
	calls.Store(int64(len([]int{500, 500, 500, 500, 500, 500, 500, 500, 500, 500}))) // exhaust the script
	if _, err := c.TriggerDENM(ctx, openc2x.TriggerRequest{}); err != nil {
		t.Fatalf("recovery probe: %v", err)
	}
	if !c.openedAt.IsZero() {
		t.Fatal("successful probe should close the breaker")
	}
}

func TestClientStationRoutes(t *testing.T) {
	var gotPath string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.URL.Path
		w.Write([]byte(`[]`))
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, BreakerThreshold: -1}
	if _, err := c.RequestDENM(context.Background()); err != nil {
		t.Fatal(err)
	}
	if gotPath != "/request_denm" {
		t.Fatalf("legacy path %q", gotPath)
	}
	c.StationID = 42
	if _, err := c.RequestDENM(context.Background()); err != nil {
		t.Fatal(err)
	}
	if gotPath != "/stations/42/request_denm" {
		t.Fatalf("station path %q", gotPath)
	}
}
