package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"itsbed/internal/geo"
	"itsbed/internal/openc2x"
	"itsbed/internal/units"
)

const (
	serviceStations = 500
	serviceConns    = 2   // keep-alive connections, one per generator worker
	closedConns     = 1   // callers in phase B
	openRate        = 100 // requests per second in phase A
	warmupRequests  = 200 // sent back to back at the end of set-up
)

var serviceEndpoints = []string{"trigger_denm", "request_denm", "metrics", "trace"}

// request is one generated HTTP request.
type request struct {
	endpoint string
	station  uint32
	lat, lon float64
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// requestFor derives request k of a phase from the seed alone: a 4:4:1:1
// draw of trigger_denm/request_denm/metrics/trace over random stations,
// with the event position jittered so LDM shards see distinct events.
func requestFor(seed int64, phase, k int) request {
	h := splitmix(splitmix(splitmix(uint64(seed))^uint64(phase)) ^ uint64(k))
	ep := serviceEndpoints[3]
	switch d := h % 10; {
	case d < 4:
		ep = serviceEndpoints[0]
	case d < 8:
		ep = serviceEndpoints[1]
	case d < 9:
		ep = serviceEndpoints[2]
	}
	unit := func(x uint64) float64 { return float64(x>>11) / (1 << 53) }
	h2 := splitmix(h)
	return request{
		endpoint: ep,
		station:  1 + uint32((h>>8)%serviceStations),
		lat:      41.1780 + unit(h2)*0.001,
		lon:      -8.6080 + unit(splitmix(h2))*0.001,
	}
}

// violation marks a 2xx response whose body breaks the API contract.
type violation string

func (v violation) Error() string { return string(v) }

// service is the HTTP client side of the service-500 workload.
type service struct {
	base   string
	client *http.Client
}

// do sends one request and checks its response.
func (s *service) do(rq request) error {
	method, path, body := http.MethodPost, "", ""
	switch rq.endpoint {
	case "trigger_denm":
		path = fmt.Sprintf("/stations/%d/trigger_denm", rq.station)
		body = fmt.Sprintf(`{"causeCode":97,"subCauseCode":1,"latitude":%.6f,"longitude":%.6f}`, rq.lat, rq.lon)
	case "request_denm":
		path = fmt.Sprintf("/stations/%d/request_denm", rq.station)
	case "metrics":
		method, path = http.MethodGet, "/metrics"
	case "trace":
		method, path = http.MethodGet, fmt.Sprintf("/stations/%d/trace", rq.station)
	}
	req, err := http.NewRequest(method, s.base+path, strings.NewReader(body))
	if err != nil {
		return err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s: read body: %w", rq.endpoint, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: HTTP %d", rq.endpoint, resp.StatusCode)
	}
	return checkBody(rq.endpoint, data)
}

// checkBody checks a 2xx body: it decodes as JSON, and request_denm
// returns a list of DENMs, each from one of the hosted stations.
func checkBody(endpoint string, data []byte) error {
	if endpoint != "request_denm" {
		if !json.Valid(data) {
			return violation(endpoint + ": 2xx body is not JSON")
		}
		return nil
	}
	var denms []struct {
		Origin uint32 `json:"originatingStationID"`
	}
	if err := json.Unmarshal(data, &denms); err != nil || denms == nil {
		return violation(fmt.Sprintf("request_denm: body is not a DENM list: %.80s", data))
	}
	for _, d := range denms {
		if d.Origin < 1 || d.Origin > serviceStations {
			return violation(fmt.Sprintf("request_denm: DENM from unknown station %d", d.Origin))
		}
	}
	return nil
}

// reqTiming is one request of a load phase.
type reqTiming struct {
	k            int       // request index in its phase
	lane         int       // generator worker
	due          time.Time // when it was due to be sent
	picked, done time.Time // when a worker took it up; when it completed
	err          error
}

// latency is measured from the due time, so it includes any wait for a
// free connection.
func (t reqTiming) latency() time.Duration { return t.done.Sub(t.due) }

// openLoop sends n requests at rate per second, request k due at
// start + k/rate whatever happened to the earlier ones, through conns
// workers that take due requests in order. A stalled request holds its
// worker, and since latency runs from the due time, the delay is also
// charged to every request queued behind it. late[k] is how far behind
// schedule the generator itself handed request k out.
func openLoop(n int, rate float64, conns int, do func(k int) error) (timings []reqTiming, late []time.Duration) {
	timings = make([]reqTiming, n)
	late = make([]time.Duration, n)
	// Sized to n so the schedule never waits on a stalled system.
	queue := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for k := range queue {
				t := &timings[k]
				t.lane, t.picked = lane, time.Now()
				t.err = do(k)
				t.done = time.Now()
			}
		}(w)
	}
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		timings[k].k, timings[k].due = k, due
		late[k] = time.Since(due)
		queue <- k
	}
	close(queue)
	wg.Wait()
	return timings, late
}

// closedLoop runs conns callers that each send their next request as
// soon as the previous one completes, until limit requests have been
// sent (limit > 0) or the deadline passes.
func closedLoop(conns, limit int, deadline time.Time, do func(k int) error) []reqTiming {
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		parts = make([][]reqTiming, conns)
	)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				if limit <= 0 && !time.Now().Before(deadline) {
					return
				}
				k := int(next.Add(1) - 1)
				if limit > 0 && k >= limit {
					return
				}
				t := reqTiming{k: k, lane: lane, due: time.Now()}
				t.picked = t.due
				t.err = do(k)
				t.done = time.Now()
				parts[lane] = append(parts[lane], t)
			}
		}(w)
	}
	wg.Wait()
	var all []reqTiming
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

// account counts a phase's requests into the report and returns the
// latencies (ms) of those that succeeded; failed requests have none.
func account(env *childEnv, rep *childReport, ts []reqTiming) []float64 {
	var lats []float64
	for _, t := range ts {
		rep.Attempted++
		if t.err != nil {
			rep.Failed++
			var v violation
			if errors.As(t.err, &v) {
				rep.Violations++
			}
			env.fail("request: %v", t.err)
			continue
		}
		lats = append(lats, ms(t.latency()))
	}
	return lats
}

// logRequests adds one http.<endpoint> span per request, with a
// conn_wait child for the time it waited for a free connection.
func logRequests(l *spanLog, parent int, seed int64, phase int, ts []reqTiming) {
	for _, t := range ts {
		id := l.add("http."+requestFor(seed, phase, t.k).endpoint, parent, t.lane+1, t.due, t.done)
		if t.picked.After(t.due) {
			l.add("conn_wait", id, t.lane+1, t.due, t.picked)
		}
	}
}

// runService hosts 500 stations in an in-process MuxServer and drives
// it over loopback HTTP. Set-up ends after a closed-loop warm-up; then
// phase A sends at a fixed open-loop rate, timing each request from its
// due time, and phase B, a closed loop with one caller, measures
// throughput.
func runService(env *childEnv) (rep childReport, err error) {
	srv, err := openc2x.NewMuxServer(openc2x.MuxConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		return rep, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	client := &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: serviceConns, MaxIdleConnsPerHost: serviceConns},
	}
	defer func() {
		client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if _, serr := srv.Shutdown(ctx); serr != nil {
			srv.Close()
		}
		if serr := <-serveDone; serr != nil && err == nil {
			err = serr
		}
	}()
	for id := uint32(1); id <= serviceStations; id++ {
		if _, err := srv.Register(id, units.StationTypePassengerCar, geo.LatLon{}); err != nil {
			return rep, err
		}
	}
	s := &service{base: "http://" + srv.Addr(), client: client}
	setup := env.spans.open("setup", 0, env.start)
	resp, err := client.Get(s.base + "/healthz")
	if err != nil {
		return rep, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	warm := closedLoop(serviceConns, warmupRequests, time.Time{}, func(k int) error {
		return s.do(requestFor(env.seed, 0, k))
	})
	done := time.Now()
	rep.SetupDone = done.UnixNano()
	env.spans.close(setup, done)
	logRequests(env.spans, setup, env.seed, 0, warm)
	account(env, &rep, warm)
	if env.setupOnly {
		return rep, nil
	}

	phase := func(name string, p int, run func(do func(k int) error) []reqTiming) []reqTiming {
		id := env.spans.open(name, 0, time.Now())
		ts := run(func(k int) error { return s.do(requestFor(env.seed, p, k)) })
		env.spans.close(id, time.Now())
		logRequests(env.spans, id, env.seed, p, ts)
		return ts
	}
	// Phase B gets most of the run, as its throughput is an end-to-end
	// metric and phase A's latencies are per-layer metrics only. It has
	// one caller: with two, two triggers fan out over the same 499
	// mailboxes at once, and throughput spread between runs 1.6 times as
	// much as with one (see README.md).
	aDur := time.Duration(env.seconds) * time.Second / 5
	bDur := time.Duration(env.seconds)*time.Second - aDur
	if err := env.prof.start(); err != nil {
		return rep, err
	}
	before := readHost()
	var late []time.Duration
	tsA := phase("open_loop", 1, func(do func(k int) error) []reqTiming {
		var ts []reqTiming
		ts, late = openLoop(int(openRate*aDur.Seconds()), openRate, serviceConns, do)
		return ts
	})
	bStart := time.Now()
	tsB := phase("closed_loop", 2, func(do func(k int) error) []reqTiming {
		return closedLoop(closedConns, env.fixedOps, bStart.Add(bDur), do)
	})
	bWall := time.Since(bStart)
	after := readHost()
	rep.Ops = len(tsA) + len(tsB)
	rep.Rerun = len(tsB)
	layerMetrics, err := env.prof.stop(rep.Ops)
	if err != nil {
		return rep, err
	}

	latsA := account(env, &rep, tsA)
	okB := len(account(env, &rep, tsB))
	rep.Metrics = timedMetrics(after.since(before), rep.Ops, latsA)
	// Throughput is phase B's: the open loop's rate is fixed by design.
	rep.Metrics["ops_per_s"] = metric{Value: float64(okB) / bWall.Seconds(), Unit: "op/s", Ops: okB}
	lateMS := make([]float64, len(late))
	for i, l := range late {
		lateMS[i] = ms(l)
	}
	var waitMS []float64
	for _, t := range tsA {
		waitMS = append(waitMS, ms(t.picked.Sub(t.due)))
	}
	lateMS, waitMS = sorted(lateMS), sorted(waitMS)
	rep.Metrics["bench.late_ms.p99"] = metric{Value: percentile(lateMS, 990), Unit: "ms", Samples: len(lateMS)}
	rep.Metrics["bench.late_ms.max"] = metric{Value: percentile(lateMS, 1000), Unit: "ms", Samples: len(lateMS)}
	rep.Metrics["bench.conn_wait_ms.p99"] = metric{Value: percentile(waitMS, 990), Unit: "ms", Samples: len(waitMS)}
	daemon, err := s.daemonMetrics()
	if err != nil {
		return rep, err
	}
	for k, v := range daemon {
		rep.Metrics[k] = v
	}
	for k, v := range layerMetrics {
		rep.Metrics[k] = v
	}
	return rep, nil
}

// daemonMetrics reads the daemon's own accounting from GET /metrics:
// server-side time per endpoint, sheds, mailbox drops and the deepest
// admission queue.
func (s *service) daemonMetrics() (map[string]metric, error) {
	type labels []struct{ Key, Value string }
	var snap struct {
		Counters []struct {
			Name   string
			Labels labels
			Value  float64
		}
		Gauges []struct {
			Name  string
			Value float64
		}
		Histograms []struct {
			Name     string
			Labels   labels
			P50, P99 float64
		}
	}
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	sum := map[string]float64{}
	for _, c := range snap.Counters {
		sum[c.Name] += c.Value
	}
	queueMax := 0.0
	for _, g := range snap.Gauges {
		if g.Name == "overload_queue_depth_max" {
			queueMax = max(queueMax, g.Value)
		}
	}
	requests := max(sum["overload_requests_total"], 1)
	out := map[string]metric{
		"openc2x.shed_rate":               {Value: sum["shed_total"] / requests, Unit: "ratio"},
		"openc2x.mailbox_dropped_per_req": {Value: sum["openc2x_mailbox_dropped_total"] / requests, Unit: "count"},
		"openc2x.queue_depth_max":         {Value: queueMax, Unit: "count"},
	}
	for _, h := range snap.Histograms {
		if h.Name != "overload_request_seconds" {
			continue
		}
		for _, l := range h.Labels {
			if l.Key == "endpoint" && slices.Contains(serviceEndpoints, l.Value) {
				out["openc2x.server_ms.p50."+l.Value] = metric{Value: h.P50 * 1e3, Unit: "ms"}
				out["openc2x.server_ms.p99."+l.Value] = metric{Value: h.P99 * 1e3, Unit: "ms"}
			}
		}
	}
	return out, nil
}
