package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"itsbed/internal/faults"
	"itsbed/internal/geo"
	"itsbed/internal/metrics"
	"itsbed/internal/openc2x"
	"itsbed/internal/units"
)

// SoakOptions parameterises one SOAK-1 campaign: an in-process
// multiplexed daemon hosting Stations stations, hammered at RPS for
// Duration while the fault plan injects API faults and churns the
// station table.
type SoakOptions struct {
	// Stations is the hosted-station count (zero: 500 — the SOAK-1
	// floor).
	Stations int
	// RPS, Duration, Workers and Seed parameterise the load run.
	RPS      float64
	Duration time.Duration
	Workers  int
	Seed     int64
	// Plan injects faults; an empty plan runs a clean soak. Crashes in
	// the plan map to station churn: each crash deregisters a
	// deterministic band of stations at At and re-registers it
	// RestartAfter later.
	Plan faults.Plan
}

func (o SoakOptions) withDefaults() SoakOptions {
	if o.Stations <= 0 {
		o.Stations = 500
	}
	if o.RPS <= 0 {
		o.RPS = 400
	}
	if o.Duration <= 0 {
		o.Duration = 10 * time.Second
	}
	return o
}

// soakRequestTimeout is the soak daemon's per-request deadline.
// Injected timeouts wedge handlers for the full deadline; keeping it
// short resolves a soak's worth of them into fast 503s rather than a
// pile of sleeping goroutines.
const soakRequestTimeout = 500 * time.Millisecond

// SoakReport couples the client-side load result with the daemon's own
// accounting.
type SoakReport struct {
	Result Result `json:"result"`
	// Stations the daemon hosted at the end of the run.
	Stations int `json:"stations"`
	// ShedTotal is the server-side count of 429s across endpoints and
	// reasons; DeadlineTotal the 503s from per-request deadlines.
	ShedTotal     uint64 `json:"shed_total"`
	DeadlineTotal uint64 `json:"deadline_total"`
	// MailboxDropped counts DENMs evicted by bounded mailboxes.
	MailboxDropped uint64 `json:"mailbox_dropped"`
	// Registrations/Deregistrations count station-table churn.
	Registrations   uint64 `json:"registrations"`
	Deregistrations uint64 `json:"deregistrations"`
	// ShutdownDropped counts DENMs still queued at shutdown.
	ShutdownDropped int `json:"shutdown_dropped"`
}

// Format renders the report: the load table plus the daemon's view.
func (r SoakReport) Format() string {
	var b strings.Builder
	b.WriteString(r.Result.Format())
	fmt.Fprintf(&b, "daemon: %d stations, %d shed (429), %d deadline (503), %d mailbox drops, %d/%d reg/dereg, %d dropped at shutdown\n",
		r.Stations, r.ShedTotal, r.DeadlineTotal, r.MailboxDropped,
		r.Registrations, r.Deregistrations, r.ShutdownDropped)
	return b.String()
}

// planFaults adapts a fault plan's HTTP section to the daemon's
// wall-clock fault model: probabilities are screened against a locked,
// seeded generator. The draw sequence is deterministic; which request
// observes which draw is not (requests race), which is the right
// fidelity for a wall-clock soak.
type planFaults struct {
	mu      sync.Mutex
	rng     *rand.Rand
	http    faults.HTTPFaults
	started time.Time
}

// NewPlanFaults builds an openc2x.HTTPFaultModel from a plan's HTTP
// faults, drawing from a generator seeded with seed.
func NewPlanFaults(h faults.HTTPFaults, seed int64) openc2x.HTTPFaultModel {
	return &planFaults{rng: rand.New(rand.NewSource(seed)), http: h}
}

func (p *planFaults) verdict(pf faults.PathFault, now time.Duration) openc2x.HTTPVerdict {
	if pf.TimeoutProb <= 0 && pf.ErrorProb <= 0 {
		return openc2x.HTTPOK
	}
	active := len(pf.Windows) == 0
	for _, w := range pf.Windows {
		if w.Contains(now) {
			active = true
			break
		}
	}
	if !active {
		return openc2x.HTTPOK
	}
	p.mu.Lock()
	u := p.rng.Float64()
	p.mu.Unlock()
	switch {
	case u < pf.TimeoutProb:
		return openc2x.HTTPTimeout
	case u < pf.TimeoutProb+pf.ErrorProb:
		return openc2x.HTTPError
	}
	return openc2x.HTTPOK
}

func (p *planFaults) TriggerVerdict(now time.Duration) openc2x.HTTPVerdict {
	return p.verdict(p.http.Trigger, now)
}

func (p *planFaults) PollVerdict(now time.Duration) openc2x.HTTPVerdict {
	return p.verdict(p.http.Poll, now)
}

// RunSoak executes one SOAK-1 campaign in-process: build the daemon,
// register the fleet, run the load, churn stations per the plan, then
// shut down gracefully and account for everything.
func RunSoak(ctx context.Context, opts SoakOptions) (SoakReport, error) {
	opts = opts.withDefaults()

	// Let any previous run's connections and timers die down before
	// taking the leak baseline.
	runtime.GC()
	goroutinesBefore := runtime.NumGoroutine()

	srv, err := openc2x.NewMuxServer(openc2x.MuxConfig{
		Addr:   "127.0.0.1:0",
		Limits: openc2x.Limits{RequestTimeout: soakRequestTimeout},
		Faults: NewPlanFaults(opts.Plan.HTTP, opts.Seed+1),
	})
	if err != nil {
		return SoakReport{}, err
	}
	stations := make([]uint32, 0, opts.Stations)
	for i := 0; i < opts.Stations; i++ {
		id := uint32(i + 1)
		if _, err := srv.Register(id, units.StationTypePassengerCar, geo.LatLon{}); err != nil {
			return SoakReport{}, fmt.Errorf("loadgen: register station %d: %w", id, err)
		}
		stations = append(stations, id)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	// Map plan crashes to station churn: each crash takes down one
	// sixteenth of the fleet (one table shard's worth) at At and
	// re-registers it RestartAfter later.
	var churn sync.WaitGroup
	churnCtx, cancelChurn := context.WithCancel(ctx)
	defer cancelChurn()
	for i, crash := range opts.Plan.Crashes {
		churn.Add(1)
		go func(i int, crash faults.NodeCrash) {
			defer churn.Done()
			victims := make([]uint32, 0, len(stations)/16+1)
			for j := i % 16; j < len(stations); j += 16 {
				victims = append(victims, stations[j])
			}
			select {
			case <-churnCtx.Done():
				return
			case <-time.After(crash.At.Std()):
			}
			for _, id := range victims {
				srv.Deregister(id)
			}
			if crash.RestartAfter <= 0 {
				return
			}
			select {
			case <-churnCtx.Done():
				// The run ended mid-outage; bring the band back anyway so
				// the final accounting sees a whole fleet.
			case <-time.After(crash.RestartAfter.Std()):
			}
			for _, id := range victims {
				// Best-effort: a station may have been re-registered by an
				// overlapping crash already.
				_, _ = srv.Register(id, units.StationTypePassengerCar, geo.LatLon{})
			}
		}(i, crash)
	}

	sampler := startHeapSampler(50 * time.Millisecond)
	result := Run(ctx, Options{
		BaseURL:  "http://" + srv.Addr(),
		Stations: stations,
		RPS:      opts.RPS,
		Duration: opts.Duration,
		Workers:  opts.Workers,
		Seed:     opts.Seed,
	})
	cancelChurn()
	churn.Wait()
	result.PeakHeapBytes = sampler.Stop()

	report := daemonReport(srv)

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	dropped, err := srv.Shutdown(shutCtx)
	report.ShutdownDropped = dropped
	if err != nil {
		// A straggler connection outlived the graceful window; force it
		// down so the campaign still reports instead of wedging.
		srv.Close()
		err = nil
	}
	if serveErr := <-serveDone; serveErr != nil && err == nil {
		err = serveErr
	}

	// Give worker transports and server goroutines a beat to exit, then
	// take the leak reading.
	time.Sleep(200 * time.Millisecond)
	runtime.GC()
	result.GoroutinesBefore = goroutinesBefore
	result.GoroutinesAfter = runtime.NumGoroutine()
	report.Result = result
	return report, err
}

// daemonReport reads the daemon's own accounting of a run.
func daemonReport(srv *openc2x.MuxServer) SoakReport {
	snap := srv.Metrics().Snapshot()
	report := SoakReport{
		Stations:        srv.StationCount(),
		MailboxDropped:  counterValue(snap, "openc2x_mailbox_dropped_total"),
		Registrations:   counterValue(snap, "mux_stations_registered_total"),
		Deregistrations: counterValue(snap, "mux_stations_deregistered_total"),
	}
	for _, c := range snap.Counters {
		if c.Name != "shed_total" {
			continue
		}
		deadline := false
		for _, l := range c.Labels {
			if l.Key == "reason" && l.Value == "deadline" {
				deadline = true
			}
		}
		if deadline {
			report.DeadlineTotal += c.Value
		} else {
			report.ShedTotal += c.Value
		}
	}
	return report
}

// counterValue reads one unlabelled counter.
func counterValue(snap metrics.Snapshot, name string) uint64 {
	c, _ := snap.FindCounter(name)
	return c.Value
}
