package loadgen

import (
	"context"
	"strings"
	"testing"
	"time"

	"itsbed/internal/faults"
	"itsbed/internal/geo"
	"itsbed/internal/openc2x"
	"itsbed/internal/units"
)

func TestPercentile(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	lats := []time.Duration{ms(9), ms(1), ms(5), ms(3), ms(7), ms(2), ms(8), ms(4), ms(6), ms(10)}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, ms(5)},
		{0.95, ms(9)},
		{0.99, ms(9)},
		{1.00, ms(10)},
	}
	for _, tc := range cases {
		if got := percentile(lats, tc.q); got != tc.want {
			t.Errorf("percentile(%.2f) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := percentile([]time.Duration{ms(42)}, 0.5); got != ms(42) {
		t.Errorf("percentile(single) = %v, want 42ms", got)
	}
}

func TestMixPick(t *testing.T) {
	m := requestMix // 4:4:1:1
	counts := map[string]int{}
	for u := 0; u < m.total(); u++ {
		counts[m.pick(u)]++
	}
	want := map[string]int{EPTrigger: 4, EPRequest: 4, EPMetrics: 1, EPTrace: 1}
	for ep, n := range want {
		if counts[ep] != n {
			t.Errorf("mix draws for %s = %d, want %d", ep, counts[ep], n)
		}
	}
}

func TestThresholdsCheck(t *testing.T) {
	base := Result{
		Endpoints: map[string]EndpointStats{
			EPTrigger: {Requests: 100, OK: 90, Shed: 10, P99: 40 * time.Millisecond},
		},
		PeakHeapBytes:    64 << 20,
		GoroutinesBefore: 10,
		GoroutinesAfter:  40,
	}
	cases := []struct {
		name    string
		th      Thresholds
		wantSub string // "" = pass
	}{
		{"all pass", Thresholds{
			MaxP99Millis:       map[string]float64{EPTrigger: 100},
			MaxShedRate:        0.5,
			MinOKRate:          0.5,
			MaxHeapMB:          128,
			MaxGoroutineGrowth: 50,
		}, ""},
		{"p99 ceiling", Thresholds{MaxP99Millis: map[string]float64{EPTrigger: 10}, MaxShedRate: -1}, "p99"},
		{"missing endpoint", Thresholds{MaxP99Millis: map[string]float64{"nope": 10}, MaxShedRate: -1}, "no successful requests"},
		{"shed rate", Thresholds{MaxShedRate: 0.05}, "shed rate"},
		{"ok rate", Thresholds{MaxShedRate: -1, MinOKRate: 0.95}, "ok rate"},
		{"heap", Thresholds{MaxShedRate: -1, MaxHeapMB: 32}, "peak heap"},
		{"goroutines", Thresholds{MaxShedRate: -1, MaxGoroutineGrowth: 5}, "goroutine growth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := base.Check(tc.th)
			if tc.wantSub == "" {
				if err != nil {
					t.Fatalf("unexpected violation: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err = %v, want mention of %q", err, tc.wantSub)
			}
		})
	}
}

func TestParseThresholds(t *testing.T) {
	th, err := ParseThresholds([]byte(`{"max_p99_millis":{"trigger_denm":250},"max_shed_rate":0.4,"max_heap_mb":256}`))
	if err != nil {
		t.Fatal(err)
	}
	if th.MaxP99Millis[EPTrigger] != 250 || th.MaxShedRate != 0.4 || th.MaxHeapMB != 256 {
		t.Fatalf("parsed %+v", th)
	}
	if _, err := ParseThresholds([]byte(`{`)); err == nil {
		t.Fatal("malformed JSON should error")
	}
}

// TestSoakSmoke is the SOAK-1 acceptance in miniature: one daemon
// multiplexing 500 stations under mixed fire with the builtin soak
// fault plan. It must finish with bounded latency, server-side
// shedding accounted, and no goroutine leak.
func TestSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("soak smoke skipped in -short")
	}
	plan, ok := faults.BuiltinPlan("soak")
	if !ok {
		t.Fatal("builtin soak plan missing")
	}
	rep, err := RunSoak(context.Background(), SoakOptions{
		Stations: 500,
		RPS:      300,
		Duration: 3 * time.Second,
		Workers:  8,
		Seed:     42,
		Plan:     plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Format())

	if rep.Stations != 500 {
		t.Fatalf("stations at end = %d, want 500", rep.Stations)
	}
	if rep.Result.TotalRequests() == 0 {
		t.Fatal("no requests completed")
	}
	// The run must mostly succeed; injected faults and shedding are
	// tolerated but collapse is not.
	th := Thresholds{
		MaxShedRate:        0.50,
		MinOKRate:          0.50,
		MaxGoroutineGrowth: 30,
	}
	if err := rep.Result.Check(th); err != nil {
		t.Fatal(err)
	}
	// The crash plan churned a band of stations and they came back.
	if rep.Registrations < 500 || rep.Deregistrations == 0 {
		t.Fatalf("churn: %d reg, %d dereg — crash plan did not exercise the station table",
			rep.Registrations, rep.Deregistrations)
	}
	if rep.Result.PeakHeapBytes == 0 {
		t.Fatal("heap sampler recorded nothing")
	}
}

// TestSoakOverloadSheds drives far more offered load than a daemon
// admits and checks the overload machinery answers with 429s rather
// than queue collapse: shed rate is nonzero, and server-side shed
// accounting matches the client seeing 429s.
func TestSoakOverloadSheds(t *testing.T) {
	if testing.Short() {
		t.Skip("soak smoke skipped in -short")
	}
	srv, err := openc2x.NewMuxServer(openc2x.MuxConfig{
		Addr: "127.0.0.1:0",
		Limits: openc2x.Limits{
			MaxConcurrent:  1,
			MaxQueue:       -1, // no queue: any overlap sheds immediately
			RequestTimeout: 100 * time.Millisecond,
			RetryAfter:     20 * time.Millisecond,
		},
		// Injected timeouts wedge the single slot for the full request
		// deadline, guaranteeing overlap at this rate.
		Faults: NewPlanFaults(faults.HTTPFaults{
			Trigger: faults.PathFault{TimeoutProb: 0.05},
			Poll:    faults.PathFault{TimeoutProb: 0.05},
		}, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	var stations []uint32
	for id := uint32(1); id <= 50; id++ {
		if _, err := srv.Register(id, units.StationTypePassengerCar, geo.LatLon{}); err != nil {
			t.Fatal(err)
		}
		stations = append(stations, id)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	result := Run(context.Background(), Options{
		BaseURL:  "http://" + srv.Addr(),
		Stations: stations,
		RPS:      2000,
		Duration: 2 * time.Second,
		Workers:  32,
		Seed:     7,
	})
	rep := daemonReport(srv)
	rep.Result = result
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Format())
	if rep.Result.TotalShed() == 0 {
		t.Fatal("overload run shed nothing — admission control not engaged")
	}
	if rep.ShedTotal == 0 {
		t.Fatal("server-side shed counter is zero despite client 429s")
	}
	if rep.Result.TotalShed() > rep.ShedTotal {
		t.Fatalf("client saw %d sheds but server counted only %d",
			rep.Result.TotalShed(), rep.ShedTotal)
	}
}
