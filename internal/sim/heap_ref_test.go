package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// refKernel is the kernel as it stood on container/heap, kept as the
// reference the typed heap must match event for event.
type refKernel struct {
	now   time.Duration
	queue refQueue
	seq   uint64
	free  []*refEvent
}

type refEvent struct {
	at     time.Duration
	seq    uint64
	fn     func()
	index  int
	kernel *refKernel
	pooled bool
}

func (e *refEvent) Cancel() {
	if e == nil || e.index < 0 || e.kernel == nil {
		return
	}
	heap.Remove(&e.kernel.queue, e.index)
	e.fn = nil
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }

func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *refQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

func (k *refKernel) Schedule(delay time.Duration, fn func()) *refEvent {
	if delay < 0 {
		delay = 0
	}
	ev := &refEvent{at: k.now + delay, seq: k.seq, fn: fn, kernel: k}
	k.seq++
	heap.Push(&k.queue, ev)
	return ev
}

func (k *refKernel) ScheduleFn(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	var ev *refEvent
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		ev = &refEvent{kernel: k, pooled: true}
	}
	ev.at, ev.seq, ev.fn = k.now+delay, k.seq, fn
	k.seq++
	heap.Push(&k.queue, ev)
}

type refTicker struct {
	kernel  *refKernel
	period  time.Duration
	fn      func()
	ev      *refEvent
	stopped bool
}

func (k *refKernel) Every(start, period time.Duration, fn func()) *refTicker {
	t := &refTicker{kernel: k, period: period, fn: fn}
	t.ev = k.Schedule(start, t.tick)
	return t
}

func (t *refTicker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		ev := t.ev
		ev.at, ev.seq = t.kernel.now+t.period, t.kernel.seq
		t.kernel.seq++
		heap.Push(&t.kernel.queue, ev)
	}
}

func (t *refTicker) Stop() {
	if !t.stopped {
		t.stopped = true
		t.ev.Cancel()
	}
}

func (k *refKernel) Run(horizon time.Duration) {
	for len(k.queue) > 0 {
		next := k.queue[0]
		if next.at > horizon {
			break
		}
		heap.Pop(&k.queue)
		k.now = next.at
		fn := next.fn
		if next.pooled {
			next.fn = nil
			k.free = append(k.free, next)
		}
		fn()
	}
	if k.now < horizon {
		k.now = horizon
	}
}

// queueUnderTest is the scheduling surface both kernels expose to the
// interleaving driver.
type queueUnderTest interface {
	Now() time.Duration
	Pending() int
	Run(horizon time.Duration)
	Schedule(delay time.Duration, fn func()) (cancel func())
	ScheduleFn(delay time.Duration, fn func())
	At(t time.Duration, fn func()) (cancel func())
	Every(start, period time.Duration, fn func()) (stop func())
}

type typedUnderTest struct{ k *Kernel }

func (q typedUnderTest) Now() time.Duration { return q.k.Now() }
func (q typedUnderTest) Pending() int       { return q.k.Pending() }
func (q typedUnderTest) Run(h time.Duration) {
	q.k.Run(h)
}
func (q typedUnderTest) Schedule(d time.Duration, fn func()) func() {
	return q.k.Schedule(d, fn).Cancel
}
func (q typedUnderTest) ScheduleFn(d time.Duration, fn func()) { q.k.ScheduleFn(d, fn) }
func (q typedUnderTest) At(t time.Duration, fn func()) func()  { return q.k.At(t, fn).Cancel }
func (q typedUnderTest) Every(start, period time.Duration, fn func()) func() {
	return q.k.Every(start, period, fn).Stop
}

type refUnderTest struct{ k *refKernel }

func (q refUnderTest) Now() time.Duration  { return q.k.now }
func (q refUnderTest) Pending() int        { return len(q.k.queue) }
func (q refUnderTest) Run(h time.Duration) { q.k.Run(h) }
func (q refUnderTest) Schedule(d time.Duration, fn func()) func() {
	return q.k.Schedule(d, fn).Cancel
}
func (q refUnderTest) ScheduleFn(d time.Duration, fn func()) { q.k.ScheduleFn(d, fn) }
func (q refUnderTest) At(t time.Duration, fn func()) func() {
	return q.k.Schedule(t-q.k.now, fn).Cancel
}
func (q refUnderTest) Every(start, period time.Duration, fn func()) func() {
	return q.k.Every(start, period, fn).Stop
}

// firing is one callback execution: when, and which callback.
type firing struct {
	at time.Duration
	id int
}

// interleaving drives one queue with a seeded random program. Both
// queues under comparison get the same seed, so as long as they fire
// the same callbacks in the same order they also make the same calls.
type interleaving struct {
	q       queueUnderTest
	rng     *rand.Rand
	log     []firing
	handles []func() // Cancel of events, Stop of tickers
	ids     int
}

// op makes one random call on the queue. Callbacks make further calls
// from inside the run loop, until the program has created maxIDs
// callbacks.
func (w *interleaving) op() {
	const maxIDs = 3000
	// Whole milliseconds, so many events share an instant; a few
	// negative (clamped to now), and some far enough out that the
	// queue grows deep.
	delay := time.Duration(w.rng.Intn(6)-1) * time.Millisecond
	if w.rng.Intn(2) == 0 {
		delay = time.Duration(w.rng.Intn(100)) * time.Millisecond
	}
	switch c := w.rng.Intn(10); {
	case c < 6 && w.ids < maxIDs:
		id := w.ids
		w.ids++
		fn := func() {
			w.log = append(w.log, firing{w.q.Now(), id})
			if w.rng.Intn(3) == 0 {
				w.op()
			}
		}
		switch c % 3 {
		case 0:
			w.handles = append(w.handles, w.q.Schedule(delay, fn))
		case 1:
			w.q.ScheduleFn(delay, fn)
		default:
			w.handles = append(w.handles, w.q.At(w.q.Now()+delay, fn))
		}
	case c < 8 && w.ids < maxIDs:
		id := w.ids
		w.ids++
		period := time.Duration(1+w.rng.Intn(3)) * time.Millisecond
		var stop func()
		stop = w.q.Every(delay, period, func() {
			w.log = append(w.log, firing{w.q.Now(), id})
			switch w.rng.Intn(8) {
			case 0:
				stop()
			case 1:
				w.op()
			}
		})
		w.handles = append(w.handles, stop)
	case len(w.handles) > 0:
		w.handles[w.rng.Intn(len(w.handles))]()
	}
}

func TestTypedHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		got := &interleaving{q: typedUnderTest{NewKernel(1)}, rng: rand.New(rand.NewSource(seed))}
		want := &interleaving{q: refUnderTest{&refKernel{}}, rng: rand.New(rand.NewSource(seed))}
		for step := 0; step < 400; step++ {
			for _, w := range []*interleaving{got, want} {
				w.op()
				w.q.Run(w.q.Now() + time.Duration(w.rng.Intn(4))*time.Millisecond)
			}
			compareInterleavings(t, seed, step, got, want)
		}
		for _, w := range []*interleaving{got, want} {
			for _, h := range w.handles {
				h()
			}
			w.q.Run(w.q.Now() + time.Second)
		}
		compareInterleavings(t, seed, -1, got, want)
		if got.q.Pending() != 0 {
			t.Fatalf("seed %d: %d events left after stopping every ticker", seed, got.q.Pending())
		}
	}
}

func compareInterleavings(t *testing.T, seed int64, step int, got, want *interleaving) {
	t.Helper()
	if got.q.Now() != want.q.Now() || got.q.Pending() != want.q.Pending() {
		t.Fatalf("seed %d step %d: now %v pending %d, reference now %v pending %d",
			seed, step, got.q.Now(), got.q.Pending(), want.q.Now(), want.q.Pending())
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("seed %d step %d: %d firings, reference %d", seed, step, len(got.log), len(want.log))
	}
	for i := range got.log {
		if got.log[i] != want.log[i] {
			t.Fatalf("seed %d step %d: firing %d is %+v, reference %+v", seed, step, i, got.log[i], want.log[i])
		}
	}
}

// TestTickerRequeueAllocatesNothing guards the steady state of every
// periodic timer: a running ticker re-queues its own event.
func TestTickerRequeueAllocatesNothing(t *testing.T) {
	k := NewKernel(1)
	k.Every(0, time.Millisecond, func() {})
	k.Schedule(time.Hour, func() {}) // a second queued event to sift past
	k.Run(0)
	n := testing.AllocsPerRun(100, func() {
		k.Run(k.Now() + time.Millisecond)
	})
	if n != 0 {
		t.Fatalf("a ticker period allocates %v objects, want 0", n)
	}
}
