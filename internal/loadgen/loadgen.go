// Package loadgen is the deterministic load harness behind the SOAK-1
// overload campaign: a paced, seeded request generator that hammers a
// testbed daemon's hot paths (/trigger_denm, /request_denm, /metrics,
// /trace) at a configurable rate, classifies every response (success,
// shed, fault, transport error) and reports latency percentiles so
// overload behaviour is a number, not an anecdote.
//
// Latencies are wall-clock and therefore machine-dependent; what the
// harness keeps deterministic is the request schedule itself — which
// endpoint, which station, in which order — which draws from seeded
// per-worker generators. CI pins the campaign with a committed
// thresholds file (ceilings, not golden bytes).
package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Endpoint names used in Result and threshold files.
const (
	EPTrigger = "trigger_denm"
	EPRequest = "request_denm"
	EPMetrics = "metrics"
	EPTrace   = "trace"
)

// mix weights the endpoint draw.
type mix struct {
	TriggerDENM, RequestDENM, Metrics, Trace int
}

// requestMix is 4:4:1:1 — the daemons' real traffic shape: message
// plane dominates, observability scrapes ride along.
var requestMix = mix{TriggerDENM: 4, RequestDENM: 4, Metrics: 1, Trace: 1}

func (m mix) total() int {
	return m.TriggerDENM + m.RequestDENM + m.Metrics + m.Trace
}

// pick maps one uniform draw to an endpoint.
func (m mix) pick(u int) string {
	switch {
	case u < m.TriggerDENM:
		return EPTrigger
	case u < m.TriggerDENM+m.RequestDENM:
		return EPRequest
	case u < m.TriggerDENM+m.RequestDENM+m.Metrics:
		return EPMetrics
	default:
		return EPTrace
	}
}

// Options parameterises one load run.
type Options struct {
	// BaseURL is the daemon root ("http://127.0.0.1:1188").
	BaseURL string
	// Stations, when non-empty, spreads requests across the
	// multiplexed /stations/{id}/... routes; empty uses the legacy
	// single-station aliases.
	Stations []uint32
	// RPS is the aggregate target request rate (zero: 100).
	RPS float64
	// Duration bounds the run (zero: 5s).
	Duration time.Duration
	// Workers is the client concurrency (zero: 8).
	Workers int
	// Seed drives the request schedule; the same seed yields the same
	// endpoint/station sequence.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.RPS <= 0 {
		o.RPS = 100
	}
	if o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	return o
}

// EndpointStats aggregates one endpoint's outcomes for a run.
type EndpointStats struct {
	Requests  uint64        `json:"requests"`
	OK        uint64        `json:"ok"`
	Shed      uint64        `json:"shed"`      // 429 with Retry-After
	Deadline  uint64        `json:"deadline"`  // 503 (per-request deadline)
	Faults    uint64        `json:"faults"`    // other non-2xx (injected 500s, 4xx)
	Transport uint64        `json:"transport"` // connection/timeout errors
	P50       time.Duration `json:"p50"`
	P95       time.Duration `json:"p95"`
	P99       time.Duration `json:"p99"`
	Max       time.Duration `json:"max"`
}

// Result is one load run's outcome.
type Result struct {
	Duration  time.Duration            `json:"duration"`
	Offered   uint64                   `json:"offered"` // requests attempted
	Endpoints map[string]EndpointStats `json:"endpoints"`
	// PeakHeapBytes is the maximum sampled heap allocation during the
	// run (meaningful for in-process soaks, zero for remote targets).
	PeakHeapBytes uint64 `json:"peak_heap_bytes,omitempty"`
	// GoroutinesBefore/After bracket the run for leak detection
	// (in-process soaks only).
	GoroutinesBefore int `json:"goroutines_before,omitempty"`
	GoroutinesAfter  int `json:"goroutines_after,omitempty"`
}

// TotalRequests sums attempts across endpoints.
func (r Result) TotalRequests() uint64 {
	var n uint64
	for _, e := range r.Endpoints {
		n += e.Requests
	}
	return n
}

// TotalShed sums 429 sheds across endpoints.
func (r Result) TotalShed() uint64 {
	var n uint64
	for _, e := range r.Endpoints {
		n += e.Shed
	}
	return n
}

// ShedRate is the fraction of attempts shed with 429.
func (r Result) ShedRate() float64 {
	total := r.TotalRequests()
	if total == 0 {
		return 0
	}
	return float64(r.TotalShed()) / float64(total)
}

// sample is one classified request outcome.
type sample struct {
	endpoint string
	latency  time.Duration
	class    outcomeClass
}

type outcomeClass uint8

const (
	classOK outcomeClass = iota
	classShed
	classDeadline
	classFault
	classTransport
)

// Run executes one load run against opts.BaseURL. The context cancels
// early; the partial result is still returned.
func Run(ctx context.Context, opts Options) Result {
	opts = opts.withDefaults()
	client := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        opts.Workers * 2,
			MaxIdleConnsPerHost: opts.Workers * 2,
		},
	}
	// The pooled keep-alive connections are ours to tear down: leaving
	// them open makes the target's graceful Shutdown wait on half-open
	// pairs.
	defer client.CloseIdleConnections()

	ctx, cancel := context.WithTimeout(ctx, opts.Duration)
	defer cancel()

	var (
		mu      sync.Mutex
		samples []sample
		offered uint64
	)
	interval := time.Duration(float64(opts.Workers) / opts.RPS * float64(time.Second))
	if interval <= 0 {
		interval = time.Millisecond
	}

	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(worker)*7919))
			local := make([]sample, 0, 1024)
			var n uint64
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					mu.Lock()
					samples = append(samples, local...)
					offered += n
					mu.Unlock()
					return
				case <-tick.C:
				}
				n++
				ep := requestMix.pick(rng.Intn(requestMix.total()))
				var station uint32
				if len(opts.Stations) > 0 {
					station = opts.Stations[rng.Intn(len(opts.Stations))]
				}
				local = append(local, doRequest(ctx, client, opts.BaseURL, ep, station, rng))
			}
		}(w)
	}
	started := time.Now()
	wg.Wait()
	elapsed := time.Since(started)

	res := Result{
		Duration:  elapsed,
		Offered:   offered,
		Endpoints: make(map[string]EndpointStats),
	}
	byEP := make(map[string][]time.Duration)
	for _, s := range samples {
		st := res.Endpoints[s.endpoint]
		st.Requests++
		switch s.class {
		case classOK:
			st.OK++
			byEP[s.endpoint] = append(byEP[s.endpoint], s.latency)
		case classShed:
			st.Shed++
		case classDeadline:
			st.Deadline++
		case classFault:
			st.Faults++
		case classTransport:
			st.Transport++
		}
		res.Endpoints[s.endpoint] = st
	}
	for ep, lats := range byEP {
		st := res.Endpoints[ep]
		st.P50 = percentile(lats, 0.50)
		st.P95 = percentile(lats, 0.95)
		st.P99 = percentile(lats, 0.99)
		st.Max = percentile(lats, 1)
		res.Endpoints[ep] = st
	}
	return res
}

// doRequest issues and classifies one request.
func doRequest(ctx context.Context, client *http.Client, base, ep string, station uint32, rng *rand.Rand) sample {
	var (
		method = http.MethodPost
		path   string
		body   string
	)
	prefix := ""
	if station != 0 {
		prefix = fmt.Sprintf("/stations/%d", station)
	}
	switch ep {
	case EPTrigger:
		path = prefix + "/trigger_denm"
		// Jitter the event position so LDM shards see distinct events.
		body = fmt.Sprintf(`{"causeCode":97,"subCauseCode":1,"latitude":%.6f,"longitude":%.6f}`,
			41.1780+rng.Float64()*0.001, -8.6080+rng.Float64()*0.001)
	case EPRequest:
		path = prefix + "/request_denm"
	case EPMetrics:
		method = http.MethodGet
		path = "/metrics"
	case EPTrace:
		method = http.MethodGet
		path = prefix + "/trace"
	}
	var rd *strings.Reader
	req, err := func() (*http.Request, error) {
		if body != "" {
			rd = strings.NewReader(body)
			return http.NewRequestWithContext(ctx, method, base+path, rd)
		}
		return http.NewRequestWithContext(ctx, method, base+path, nil)
	}()
	if err != nil {
		return sample{endpoint: ep, class: classTransport}
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	began := time.Now()
	resp, err := client.Do(req)
	lat := time.Since(began)
	if err != nil {
		return sample{endpoint: ep, latency: lat, class: classTransport}
	}
	resp.Body.Close()
	class := classOK
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		class = classShed
	case resp.StatusCode == http.StatusServiceUnavailable:
		class = classDeadline
	case resp.StatusCode < 200 || resp.StatusCode >= 300:
		class = classFault
	}
	return sample{endpoint: ep, latency: lat, class: class}
}

// percentile returns the q-th latency quantile (q in (0,1]; 1 = max).
func percentile(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Format renders the result as a fixed-width table.
func (r Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load run: %s, %d requests offered (%.0f req/s achieved)\n",
		r.Duration.Round(time.Millisecond), r.Offered,
		float64(r.TotalRequests())/r.Duration.Seconds())
	fmt.Fprintf(&b, "%-14s %9s %9s %7s %9s %7s %10s %9s %9s %9s\n",
		"endpoint", "requests", "ok", "shed", "deadline", "fault", "transport", "p50", "p95", "p99")
	eps := make([]string, 0, len(r.Endpoints))
	for ep := range r.Endpoints {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		st := r.Endpoints[ep]
		fmt.Fprintf(&b, "%-14s %9d %9d %7d %9d %7d %10d %9s %9s %9s\n",
			ep, st.Requests, st.OK, st.Shed, st.Deadline, st.Faults, st.Transport,
			st.P50.Round(100*time.Microsecond),
			st.P95.Round(100*time.Microsecond),
			st.P99.Round(100*time.Microsecond))
	}
	fmt.Fprintf(&b, "shed rate: %.2f%%", r.ShedRate()*100)
	if r.PeakHeapBytes > 0 {
		fmt.Fprintf(&b, ", peak heap: %.1f MiB", float64(r.PeakHeapBytes)/(1<<20))
	}
	if r.GoroutinesBefore > 0 {
		fmt.Fprintf(&b, ", goroutines: %d -> %d", r.GoroutinesBefore, r.GoroutinesAfter)
	}
	b.WriteString("\n")
	return b.String()
}

// Thresholds are the SOAK-1 pass/fail ceilings. Latency is wall-clock
// and machine-dependent, so the committed file pins generous ceilings
// rather than exact values: the campaign catches collapse (p99
// inflation, unshed overload, leaks), not jitter.
type Thresholds struct {
	// MaxP99Millis caps each endpoint's p99 latency (endpoints absent
	// from the map are unchecked).
	MaxP99Millis map[string]float64 `json:"max_p99_millis,omitempty"`
	// MaxShedRate caps the overall 429 fraction (0..1). Negative
	// disables the check; zero means "no sheds allowed".
	MaxShedRate float64 `json:"max_shed_rate"`
	// MinOKRate floors the fraction of requests answered 2xx.
	MinOKRate float64 `json:"min_ok_rate,omitempty"`
	// MaxHeapMB caps the peak sampled heap (zero disables).
	MaxHeapMB float64 `json:"max_heap_mb,omitempty"`
	// MaxGoroutineGrowth caps goroutines-after minus goroutines-before
	// (zero disables; meaningful for in-process soaks).
	MaxGoroutineGrowth int `json:"max_goroutine_growth,omitempty"`
}

// ParseThresholds decodes a committed thresholds file.
func ParseThresholds(data []byte) (Thresholds, error) {
	var t Thresholds
	if err := json.Unmarshal(data, &t); err != nil {
		return Thresholds{}, fmt.Errorf("loadgen: parse thresholds: %w", err)
	}
	return t, nil
}

// Check evaluates the result against the ceilings, returning an error
// naming every violated threshold.
func (r Result) Check(t Thresholds) error {
	var violations []string
	for ep, maxMS := range t.MaxP99Millis {
		st, ok := r.Endpoints[ep]
		if !ok || st.OK == 0 {
			violations = append(violations, fmt.Sprintf("%s: no successful requests", ep))
			continue
		}
		if got := float64(st.P99) / float64(time.Millisecond); got > maxMS {
			violations = append(violations, fmt.Sprintf("%s: p99 %.1fms > %.1fms", ep, got, maxMS))
		}
	}
	if t.MaxShedRate >= 0 {
		if rate := r.ShedRate(); rate > t.MaxShedRate {
			violations = append(violations, fmt.Sprintf("shed rate %.3f > %.3f", rate, t.MaxShedRate))
		}
	}
	if t.MinOKRate > 0 {
		var ok uint64
		for _, e := range r.Endpoints {
			ok += e.OK
		}
		total := r.TotalRequests()
		if total > 0 {
			if rate := float64(ok) / float64(total); rate < t.MinOKRate {
				violations = append(violations, fmt.Sprintf("ok rate %.3f < %.3f", rate, t.MinOKRate))
			}
		}
	}
	if t.MaxHeapMB > 0 && r.PeakHeapBytes > 0 {
		if got := float64(r.PeakHeapBytes) / (1 << 20); got > t.MaxHeapMB {
			violations = append(violations, fmt.Sprintf("peak heap %.1fMB > %.1fMB", got, t.MaxHeapMB))
		}
	}
	if t.MaxGoroutineGrowth > 0 && r.GoroutinesBefore > 0 {
		if growth := r.GoroutinesAfter - r.GoroutinesBefore; growth > t.MaxGoroutineGrowth {
			violations = append(violations, fmt.Sprintf("goroutine growth %d > %d",
				growth, t.MaxGoroutineGrowth))
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("loadgen: thresholds violated: %s", strings.Join(violations, "; "))
	}
	return nil
}

// heapSampler tracks peak heap allocation while running.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var ms runtime.MemStats
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > s.peak {
					s.peak = ms.HeapAlloc
				}
			}
		}
	}()
	return s
}

func (s *heapSampler) Stop() uint64 {
	close(s.stop)
	<-s.done
	return s.peak
}
