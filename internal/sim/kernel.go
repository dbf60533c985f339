// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of timed
// events. All simulated subsystems (radio medium, vehicle physics,
// perception pipeline, protocol timers) schedule callbacks on a shared
// Kernel; running the kernel advances virtual time from event to event.
// Determinism is guaranteed by a stable tie-break on (time, sequence
// number) and by handing out named, independently seeded random streams.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Event is a scheduled callback. It is returned by the scheduling
// methods and can be used to cancel the event before it fires.
type Event struct {
	at     time.Duration
	seq    uint64
	fn     func()
	index  int // heap index, -1 once fired or cancelled
	kernel *Kernel
	// pooled marks events created by ScheduleFn: no handle escapes, so
	// the kernel recycles the object once the callback has run.
	pooled bool
}

// Cancel prevents the event from firing and removes it from the queue
// immediately, so Pending never counts it. Cancelling an event that
// has already fired or was already cancelled is a no-op.
func (e *Event) Cancel() {
	if e == nil || e.index < 0 || e.kernel == nil {
		return
	}
	e.kernel.queue.remove(e.index)
	e.fn = nil // release the closure
}

// eventQueue is a binary min-heap of events ordered by (at, seq).
// Because seq is unique the order is total, so every correct heap pops
// the same sequence. Each event's index tracks its slot.
type eventQueue []*Event

// before reports whether a fires before b.
func before(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push adds ev to the queue.
func (q *eventQueue) push(ev *Event) {
	*q = append(*q, ev)
	q.up(ev, len(*q)-1)
}

// popMin removes and returns the earliest event. The queue must not be
// empty.
func (q *eventQueue) popMin() *Event {
	h := *q
	ev := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	*q = h[:n]
	if n > 0 {
		q.down(last, 0)
	}
	ev.index = -1
	return ev
}

// remove deletes the event at slot i.
func (q *eventQueue) remove(i int) {
	h := *q
	ev := h[i]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	*q = h[:n]
	if i != n && !q.down(last, i) {
		q.up(last, i)
	}
	ev.index = -1
}

// up places ev, which belongs at or above slot i, moving parents down
// into the hole until ev's slot is found.
func (q eventQueue) up(ev *Event, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !before(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// down places ev, which belongs at or below slot i, moving children up
// into the hole. It reports whether ev left slot i.
func (q eventQueue) down(ev *Event, i int) bool {
	i0, n := i, len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(q[r], q[c]) {
			c = r
		}
		if !before(q[c], ev) {
			break
		}
		q[i] = q[c]
		q[i].index = i
		i = c
	}
	q[i] = ev
	ev.index = i
	return i != i0
}

// Kernel is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; all simulated components run inside kernel events.
type Kernel struct {
	now     time.Duration
	queue   eventQueue
	seq     uint64
	seed    int64
	streams map[string]*stream
	// free is the recycle list for pooled (handle-free) events.
	free []*Event
}

// NewKernel returns a kernel whose random streams derive from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		seed: seed,
		// A scenario keeps a few dozen timers in flight (per-station
		// CAM/DENM timers, EDCA backoffs, physics and perception ticks);
		// start with room for them so the heap never reallocates.
		queue:   make(eventQueue, 0, 64),
		streams: make(map[string]*stream),
	}
}

// Now reports the current virtual time since simulation start.
func (k *Kernel) Now() time.Duration { return k.now }

// stream is a named random stream: its source, and the rand.Rand over
// it once Rand has asked for one. rand.Rand keeps no state of its own
// for the draws the simulation makes, so a caller may also draw from
// the source directly without changing the sequence.
type stream struct {
	src Source
	rng *rand.Rand
}

// stream returns the named stream, creating it on first use.
func (k *Kernel) stream(name string) *stream {
	if st, ok := k.streams[name]; ok {
		return st
	}
	st := new(stream)
	st.src.Seed(k.seed ^ int64(fnv64(name)))
	k.streams[name] = st
	return st
}

// Rand returns the named deterministic random stream, creating it on
// first use. Distinct names yield independent streams; the same name
// always yields the same sequence for a given kernel seed, regardless
// of the order in which other streams are created.
func (k *Kernel) Rand(name string) *rand.Rand {
	st := k.stream(name)
	if st.rng == nil {
		st.rng = rand.New(&st.src)
	}
	return st.rng
}

// Source returns the source behind the named stream Rand hands out,
// for bulk draws through Source.NormFill. Draws from either advance
// the one sequence.
func (k *Kernel) Source(name string) *Source { return &k.stream(name).src }

func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Schedule runs fn after delay of virtual time. A negative delay is
// treated as zero (fire as soon as possible, after already-queued
// events at the current instant).
func (k *Kernel) Schedule(delay time.Duration, fn func()) *Event {
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	ev := &Event{at: k.now + delay, seq: k.seq, fn: fn, kernel: k}
	k.seq++
	k.queue.push(ev)
	return ev
}

// ScheduleFn runs fn after delay of virtual time, like Schedule, but
// hands out no cancellation handle. Because no reference to the event
// can escape, the kernel reuses a recycled Event object and returns it
// to the free list right after the callback runs — fire-and-forget
// scheduling (frame deliveries, one-shot hops) stops allocating.
func (k *Kernel) ScheduleFn(delay time.Duration, fn func()) {
	if fn == nil {
		panic("sim: ScheduleFn with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	var ev *Event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		ev = &Event{kernel: k, pooled: true}
	}
	ev.at = k.now + delay
	ev.seq = k.seq
	ev.fn = fn
	k.seq++
	k.queue.push(ev)
}

// recycle returns a fired pooled event to the free list.
func (k *Kernel) recycle(ev *Event) {
	if ev.pooled {
		ev.fn = nil
		k.free = append(k.free, ev)
	}
}

// At runs fn at the absolute virtual time t. Times in the past are
// clamped to now.
func (k *Kernel) At(t time.Duration, fn func()) *Event {
	return k.Schedule(t-k.now, fn)
}

// Every schedules fn periodically, first after start, then every
// period, until the returned Ticker is stopped.
func (k *Kernel) Every(start, period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every with non-positive period %v", period))
	}
	t := &Ticker{kernel: k, period: period, fn: fn}
	t.ev = k.Schedule(start, t.tick)
	return t
}

// Ticker is a periodic event created by Every.
type Ticker struct {
	kernel  *Kernel
	period  time.Duration
	fn      func()
	ev      *Event
	stopped bool
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		// Re-queue the ticker's own (just fired) Event instead of
		// allocating a fresh one: the ticker is the only holder of the
		// handle, so reuse is safe and Stop keeps working.
		t.kernel.requeue(t.ev, t.period)
	}
}

// requeue pushes a fired, owner-held event back onto the queue with a
// fresh deadline and sequence number. Caller must guarantee the event
// is not currently queued.
func (k *Kernel) requeue(ev *Event, delay time.Duration) {
	if delay < 0 {
		delay = 0
	}
	ev.at = k.now + delay
	ev.seq = k.seq
	k.seq++
	k.queue.push(ev)
}

// Stop cancels future firings. Safe to call multiple times and from
// within the ticker callback.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.ev.Cancel()
}

// Run executes events in timestamp order until the queue is empty or
// virtual time would exceed horizon. Events scheduled exactly at the
// horizon still run, and the clock then stands at the horizon, so
// successive Run calls continue seamlessly. A horizon behind Now runs
// nothing and leaves the clock where it is.
func (k *Kernel) Run(horizon time.Duration) {
	k.run(horizon, nil)
}

// RunUntil executes events until pred returns true (checked after each
// event) or the horizon passes. It reports whether pred was satisfied.
// The clock moves as in Run.
func (k *Kernel) RunUntil(horizon time.Duration, pred func() bool) bool {
	if pred() {
		return true
	}
	return k.run(horizon, pred)
}

// run is the event loop behind Run and RunUntil; pred may be nil.
func (k *Kernel) run(horizon time.Duration, pred func() bool) bool {
	for len(k.queue) > 0 && k.queue[0].at <= horizon {
		next := k.queue.popMin()
		k.now = next.at
		fn := next.fn
		k.recycle(next)
		fn()
		if pred != nil && pred() {
			return true
		}
	}
	if k.now < horizon {
		k.now = horizon
	}
	return false
}
