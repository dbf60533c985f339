package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	k.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	k.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	k.Run(time.Second)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestScheduleTieBreakFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	k.Run(time.Second)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.Schedule(-time.Second, func() { fired = true })
	k.Run(time.Millisecond)
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if k.Now() != time.Millisecond {
		t.Fatalf("Now()=%v, want horizon", k.Now())
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	ev := k.Schedule(10*time.Millisecond, func() { fired = true })
	ev.Cancel()
	k.Run(time.Second)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelIsIdempotentAndNilSafe(t *testing.T) {
	k := NewKernel(1)
	ev := k.Schedule(time.Millisecond, func() {})
	ev.Cancel()
	ev.Cancel()
	var nilEv *Event
	nilEv.Cancel() // must not panic
	k.Run(time.Second)
}

func TestPendingExcludesCancelled(t *testing.T) {
	k := NewKernel(1)
	evs := make([]*Event, 3)
	for i := range evs {
		evs[i] = k.Schedule(time.Duration(i+1)*time.Millisecond, func() {})
	}
	if k.Pending() != 3 {
		t.Fatalf("Pending()=%d, want 3", k.Pending())
	}
	evs[1].Cancel()
	if k.Pending() != 2 {
		t.Fatalf("Pending()=%d after cancel, want 2 (cancelled events must not linger)", k.Pending())
	}
	evs[1].Cancel() // idempotent
	if k.Pending() != 2 {
		t.Fatalf("Pending()=%d after double cancel, want 2", k.Pending())
	}
	k.Run(time.Second)
	if k.Pending() != 0 {
		t.Fatalf("Pending()=%d after run, want 0", k.Pending())
	}
}

func TestCancelFromWithinCallback(t *testing.T) {
	k := NewKernel(1)
	fired := false
	victim := k.Schedule(20*time.Millisecond, func() { fired = true })
	k.Schedule(10*time.Millisecond, func() {
		victim.Cancel()
		if k.Pending() != 0 {
			t.Fatalf("Pending()=%d inside callback, want 0", k.Pending())
		}
	})
	k.Run(time.Second)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestTickerStopKeepsQueueClean(t *testing.T) {
	k := NewKernel(1)
	tk := k.Every(time.Millisecond, time.Millisecond, func() {})
	k.Schedule(500*time.Microsecond, tk.Stop)
	k.Run(10 * time.Millisecond)
	if k.Pending() != 0 {
		t.Fatalf("Pending()=%d after ticker stop, want 0", k.Pending())
	}
}

func TestHorizonLeavesFutureEventsQueued(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.Schedule(100*time.Millisecond, func() { fired = true })
	k.Run(50 * time.Millisecond)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if k.Now() != 50*time.Millisecond {
		t.Fatalf("Now()=%v, want 50ms", k.Now())
	}
	k.Run(200 * time.Millisecond)
	if !fired {
		t.Fatal("event did not fire on resumed run")
	}
}

func TestEventAtHorizonFires(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.Schedule(50*time.Millisecond, func() { fired = true })
	k.Run(50 * time.Millisecond)
	if !fired {
		t.Fatal("event exactly at horizon should fire")
	}
}

func TestAtAbsoluteTime(t *testing.T) {
	k := NewKernel(1)
	var at time.Duration
	k.Schedule(10*time.Millisecond, func() {
		k.At(25*time.Millisecond, func() { at = k.Now() })
	})
	k.Run(time.Second)
	if at != 25*time.Millisecond {
		t.Fatalf("At fired at %v, want 25ms", at)
	}
}

func TestEvery(t *testing.T) {
	k := NewKernel(1)
	var times []time.Duration
	tk := k.Every(10*time.Millisecond, 20*time.Millisecond, func() {
		times = append(times, k.Now())
	})
	k.Schedule(75*time.Millisecond, tk.Stop)
	k.Run(time.Second)
	want := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond, 50 * time.Millisecond, 70 * time.Millisecond}
	if len(times) != len(want) {
		t.Fatalf("ticks %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestTickerStopFromWithinCallback(t *testing.T) {
	k := NewKernel(1)
	n := 0
	var tk *Ticker
	tk = k.Every(0, time.Millisecond, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	k.Run(time.Second)
	if n != 3 {
		t.Fatalf("ticker fired %d times, want 3", n)
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.Every(0, time.Millisecond, func() { n++ })
	ok := k.RunUntil(time.Second, func() bool { return n >= 10 })
	if !ok {
		t.Fatal("predicate not satisfied")
	}
	if n != 10 {
		t.Fatalf("n=%d, want exactly 10 (stop right after pred)", n)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(time.Millisecond, func() {})
	ok := k.RunUntil(time.Second, func() bool { return false })
	if ok {
		t.Fatal("predicate unexpectedly satisfied")
	}
	if k.Now() != time.Second {
		t.Fatalf("Now()=%v, want horizon", k.Now())
	}
}

func TestRunUntilPredAlreadyTrue(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.Schedule(time.Millisecond, func() { fired = true })
	if ok := k.RunUntil(time.Second, func() bool { return true }); !ok {
		t.Fatalf("ok=%v", ok)
	}
	if fired {
		t.Fatal("no events should run when pred is already true")
	}
}

func TestRandStreamsIndependentOfCreationOrder(t *testing.T) {
	k1 := NewKernel(99)
	a1 := k1.Rand("a").Int63()
	b1 := k1.Rand("b").Int63()

	k2 := NewKernel(99)
	b2 := k2.Rand("b").Int63()
	a2 := k2.Rand("a").Int63()

	if a1 != a2 || b1 != b2 {
		t.Fatal("named streams depend on creation order")
	}
}

func TestRandStreamsDifferBySeed(t *testing.T) {
	if NewKernel(1).Rand("x").Int63() == NewKernel(2).Rand("x").Int63() {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandSameNameSameStream(t *testing.T) {
	k := NewKernel(5)
	r1 := k.Rand("s")
	r2 := k.Rand("s")
	if r1 != r2 {
		t.Fatal("same name returned distinct streams")
	}
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	NewKernel(1).Schedule(time.Millisecond, nil)
}

func TestEveryNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every with period 0 did not panic")
		}
	}()
	NewKernel(1).Every(0, 0, func() {})
}

// TestPropertyEventsFireInOrder checks, for arbitrary delay sets, that
// execution times are non-decreasing.
func TestPropertyEventsFireInOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		k := NewKernel(7)
		var fired []time.Duration
		for _, d := range delays {
			k.Schedule(time.Duration(d)*time.Microsecond, func() {
				fired = append(fired, k.Now())
			})
		}
		k.Run(time.Hour)
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			k.Schedule(time.Microsecond, recurse)
		}
	}
	k.Schedule(0, recurse)
	k.Run(time.Second)
	if depth != 100 {
		t.Fatalf("depth=%d, want 100", depth)
	}
}

// TestRunHorizonBehindNowKeepsClock: a horizon behind Now runs nothing
// and must not turn the clock back, or later events would fire before
// ones that already ran.
func TestRunHorizonBehindNowKeepsClock(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(10*time.Second, func() {}) // keeps the queue non-empty
	k.Run(5 * time.Second)
	k.Run(2 * time.Second)
	if k.Now() != 5*time.Second {
		t.Fatalf("Run(2s) at 5s moved the clock to %v", k.Now())
	}
	if ok := k.RunUntil(time.Second, func() bool { return false }); ok {
		t.Fatalf("RunUntil(1s) = %v", ok)
	}
	if k.Now() != 5*time.Second {
		t.Fatalf("RunUntil(1s) at 5s moved the clock to %v", k.Now())
	}
	var at time.Duration
	k.Schedule(time.Second, func() { at = k.Now() })
	k.Run(7 * time.Second)
	if at != 6*time.Second {
		t.Fatalf("event scheduled 1s after 5s fired at %v", at)
	}
}

// Pending reports the number of live events waiting in the queue.
// Cancelled events are removed at Cancel time and never counted, so
// campaign-level pending checks are exact.
func (k *Kernel) Pending() int { return len(k.queue) }
