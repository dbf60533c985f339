package openc2x

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"itsbed/internal/flight"
	"itsbed/internal/metrics"
	"itsbed/internal/trace"
)

// Limits parameterises the overload-protection layer wrapped around
// the HTTP hot path: per-endpoint concurrency caps with bounded
// admission queues that shed excess load with 429 + Retry-After, and a
// per-request deadline that converts a wedged handler into a 503
// instead of a pinned connection.
type Limits struct {
	// MaxConcurrent requests may run a given endpoint's handler at
	// once; zero selects DefaultLimits' value, negative disables the
	// concurrency cap entirely.
	MaxConcurrent int
	// MaxQueue bounds how many requests may wait for a concurrency
	// slot; a request arriving with the queue full is shed immediately.
	MaxQueue int
	// QueueTimeout bounds how long a queued request waits for a slot
	// before it is shed.
	QueueTimeout time.Duration
	// RequestTimeout is the per-request deadline: a handler still
	// running past it is answered 503 (the connection is released even
	// if the handler is wedged on an injected fault).
	RequestTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses.
	RetryAfter time.Duration
}

// DefaultLimits returns the daemon defaults: generous enough that a
// correctly-sized client population never sees a shed, tight enough
// that an overload degrades into fast 429s instead of collapse.
func DefaultLimits() Limits {
	return Limits{
		MaxConcurrent:  128,
		MaxQueue:       512,
		QueueTimeout:   time.Second,
		RequestTimeout: 5 * time.Second,
		RetryAfter:     50 * time.Millisecond,
	}
}

// withDefaults fills unset fields from DefaultLimits.
func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxConcurrent == 0 {
		l.MaxConcurrent = d.MaxConcurrent
	}
	if l.MaxQueue == 0 {
		l.MaxQueue = d.MaxQueue
	}
	if l.QueueTimeout == 0 {
		l.QueueTimeout = d.QueueTimeout
	}
	if l.RequestTimeout == 0 {
		l.RequestTimeout = d.RequestTimeout
	}
	if l.RetryAfter == 0 {
		l.RetryAfter = d.RetryAfter
	}
	return l
}

// guard is one endpoint's admission controller. Every request first
// claims a queue token (shed with 429 when the queue is full), then
// waits bounded time for a concurrency slot (shed with 429 on
// timeout), then runs the handler under the per-request deadline
// (answered 503 when it elapses). Every shed is countable and
// flight-recorded so overload behaviour is attributable post-mortem.
type guard struct {
	endpoint string
	lim      Limits
	slots    chan struct{}
	queued   atomic.Int64
	start    time.Time
	fl       flight.Hook

	shedQueueFull    *metrics.Counter
	shedQueueTimeout *metrics.Counter
	shedDeadline     *metrics.Counter
	requests         *metrics.Counter
	inflight         *metrics.Gauge
	inflightMax      *metrics.Gauge
	queueMax         *metrics.Gauge
	latency          *metrics.Histogram
}

// newGuard builds the admission controller for one endpoint, counting
// into p's registry and recording sheds into p's ring; p may be shared
// across endpoints. start anchors flight timestamps.
func newGuard(endpoint string, lim Limits, p trace.Probe, start time.Time) *guard {
	lim = lim.withDefaults()
	reg := p.Sink().Metrics
	g := &guard{
		endpoint: endpoint,
		lim:      lim,
		start:    start,
		fl:       p.Hook,

		shedQueueFull:    reg.Counter("shed_total", metrics.L("endpoint", endpoint), metrics.L("reason", "queue_full")),
		shedQueueTimeout: reg.Counter("shed_total", metrics.L("endpoint", endpoint), metrics.L("reason", "queue_timeout")),
		shedDeadline:     reg.Counter("shed_total", metrics.L("endpoint", endpoint), metrics.L("reason", "deadline")),
		requests:         reg.Counter("overload_requests_total", metrics.L("endpoint", endpoint)),
		inflight:         reg.Gauge("overload_inflight", metrics.L("endpoint", endpoint)),
		inflightMax:      reg.Gauge("overload_inflight_max", metrics.L("endpoint", endpoint)),
		queueMax:         reg.Gauge("overload_queue_depth_max", metrics.L("endpoint", endpoint)),
		latency:          reg.Histogram("overload_request_seconds", metrics.L("endpoint", endpoint)),
	}
	if lim.MaxConcurrent > 0 {
		g.slots = make(chan struct{}, lim.MaxConcurrent)
	}
	return g
}

// shed answers one refused request with 429 + Retry-After and accounts
// it.
func (g *guard) shed(w http.ResponseWriter, code uint8, c *metrics.Counter) {
	c.Inc()
	g.fl.Record(time.Since(g.start), flight.HTTPShed, code, 0, 0)
	seconds := int(g.lim.RetryAfter / time.Second)
	if seconds < 1 {
		seconds = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(seconds))
	http.Error(w, "overloaded, retry later", http.StatusTooManyRequests)
}

// wrap returns h behind the guard's admission control and deadline.
func (g *guard) wrap(h http.Handler) http.Handler {
	// The deadline layer sits inside admission control so its 503 is
	// only spent on requests that were admitted.
	deadline := http.TimeoutHandler(h, g.lim.RequestTimeout, "request deadline exceeded")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.requests.Inc()
		if g.slots != nil {
			select {
			case g.slots <- struct{}{}:
				// Fast path: a slot is free.
			default:
				// Saturated: join the bounded queue.
				if q := g.queued.Add(1); int(q) > g.lim.MaxQueue {
					g.queued.Add(-1)
					g.shed(w, flight.ShedQueueFull, g.shedQueueFull)
					return
				} else {
					g.queueMax.SetMax(float64(q))
				}
				t := time.NewTimer(g.lim.QueueTimeout)
				select {
				case g.slots <- struct{}{}:
					t.Stop()
					g.queued.Add(-1)
				case <-t.C:
					g.queued.Add(-1)
					g.shed(w, flight.ShedQueueTimeout, g.shedQueueTimeout)
					return
				case <-r.Context().Done():
					t.Stop()
					g.queued.Add(-1)
					return // client gave up while queued
				}
			}
			defer func() { <-g.slots }()
		}
		g.inflight.Add(1)
		g.inflightMax.SetMax(g.inflight.Value())
		began := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		deadline.ServeHTTP(sw, r)
		g.latency.ObserveDuration(time.Since(began))
		g.inflight.Add(-1)
		if sw.status == http.StatusServiceUnavailable {
			// http.TimeoutHandler answered for a handler that outlived
			// the per-request deadline.
			g.shedDeadline.Inc()
			g.fl.Record(time.Since(g.start), flight.HTTPShed, flight.ShedDeadline, 0, 0)
		}
	})
}

// statusWriter records the response status for post-handler
// accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}
