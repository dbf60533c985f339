// Package campaign executes independently-seeded scenario runs on a
// worker pool while guaranteeing results that are bit-identical to
// serial execution, regardless of worker count.
//
// The engine exploits the embarrassingly parallel run dimension of the
// paper's evaluation campaigns (Table II/III, Fig. 11, every sweep in
// internal/experiments): each attempt builds a private simulation
// kernel from a derived seed, so attempts are pure functions of their
// attempt index and can run concurrently.
//
// Determinism is preserved by construction:
//
//   - attempts are handed to workers in index order, but results are
//     buffered and *processed* strictly in attempt order by the calling
//     goroutine;
//   - the accept callback is invoked from the calling goroutine only,
//     in attempt order, exactly as many times as the serial loop would
//     invoke it — never for attempts past the decision point;
//   - when n runs have been accepted (or an attempt at the decision
//     cursor failed), later speculative attempts are discarded and the
//     pool drains.
//
// The retry-until-n-accepted semantics of the experiment harnesses —
// repeat a run whose detection chain failed, give up after a bounded
// number of attempts — are implemented by speculative over-scheduling:
// workers may run a handful of attempts beyond the ones the serial
// loop would have reached, but their results never influence the
// output.
package campaign

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"itsbed/internal/metrics"
)

// Options tune a campaign execution.
type Options struct {
	// Workers is the number of concurrent attempts. Zero or negative
	// selects runtime.NumCPU(); one forces the serial fast path.
	Workers int
	// Metrics, when non-nil, receives the campaign_* counters. Only the
	// deterministic decision path increments them (attempts processed
	// at the cursor, accepted, rejected) — never the speculative
	// workers — so the values are identical for any worker count.
	Metrics *metrics.Registry
	// Progress, when non-nil, observes campaign progress: it is called
	// from the calling goroutine only, after each attempt is processed
	// at the decision cursor, with the number of processed attempts and
	// the attempt budget. It runs outside every simulation kernel and
	// must not influence results (write to stderr, update a ticker).
	Progress func(done, total int)
}

// counters caches the campaign counter families (all nil-safe).
type counters struct {
	processed, accepted, rejected *metrics.Counter
}

func (o Options) counters() counters {
	return counters{
		processed: o.Metrics.Counter("campaign_attempts_processed_total"),
		accepted:  o.Metrics.Counter("campaign_runs_accepted_total"),
		rejected:  o.Metrics.Counter("campaign_runs_rejected_total"),
	}
}

// workers resolves the worker count, never exceeding the job count.
func (o Options) workers(jobs int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Split divides a worker budget between the two levels of a sweep:
// an outer Map over rows (variant configurations) and the repeated
// runs inside each row. outer*inner never exceeds the budget by more
// than rounding, and both levels stay >= 1, so a sweep saturates the
// budget whether the row count or the run count dominates.
func Split(workers, rows int) (outer, inner int) {
	w := workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if rows < 1 {
		rows = 1
	}
	outer = w
	if outer > rows {
		outer = rows
	}
	inner = w / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}

// ExhaustedError reports that a campaign consumed its attempt budget
// before accepting the requested number of runs.
type ExhaustedError struct {
	Accepted, Wanted, Attempts int
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("campaign: only %d/%d runs accepted after %d attempts",
		e.Accepted, e.Wanted, e.Attempts)
}

type attemptResult[T any] struct {
	idx int
	val T
	err error
}

// Collect runs attempts 0, 1, 2, ... concurrently until n results have
// been accepted, in attempt order, or maxAttempts attempts have been
// consumed (then an *ExhaustedError is returned). run must be a pure
// function of its attempt index; accept decides whether an attempt
// counts towards the n requested runs and is always called from the
// calling goroutine, in attempt order. A run error aborts the campaign
// with that error, exactly as a serial loop would at the same attempt.
func Collect[T any](opt Options, n, maxAttempts int,
	run func(attempt int) (T, error), accept func(T) bool) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if maxAttempts < n {
		maxAttempts = n
	}
	if opt.workers(maxAttempts) == 1 {
		return collectSerial(opt.counters(), opt.Progress, n, maxAttempts, run, accept)
	}
	return collectParallel(opt.counters(), opt.Progress, opt.workers(maxAttempts), n, maxAttempts, run, accept)
}

// collectSerial is the reference implementation: the exact loop the
// experiment harnesses ran before the engine existed.
func collectSerial[T any](c counters, progress func(done, total int), n, maxAttempts int,
	run func(int) (T, error), accept func(T) bool) ([]T, error) {
	out := make([]T, 0, n)
	for i := 0; len(out) < n; i++ {
		if i >= maxAttempts {
			return nil, &ExhaustedError{Accepted: len(out), Wanted: n, Attempts: maxAttempts}
		}
		v, err := run(i)
		if err != nil {
			return nil, err
		}
		c.processed.Inc()
		if progress != nil {
			progress(i+1, maxAttempts)
		}
		if accept(v) {
			c.accepted.Inc()
			out = append(out, v)
		} else {
			c.rejected.Inc()
		}
	}
	return out, nil
}

// speculation bounds how far parallel workers run ahead of the
// collector: attempt idx may start only while idx < settled + window,
// settled being the first attempt the collector has not decided yet.
// Without the bound, a descheduled worker holding the cursor's attempt
// let the others run on to maxAttempts. The attempt at the cursor is
// always inside the window, so the collector always progresses.
type speculation struct {
	next    atomic.Int64 // next attempt index to claim
	settled atomic.Int64 // the collector's cursor
	stopped atomic.Bool  // decision made; workers wind down
	window  int64
	mu      sync.Mutex
	moved   sync.Cond // signalled under mu when settled or stopped changes
}

// admit waits until attempt idx is inside the window, and reports
// false when the campaign was decided meanwhile.
func (s *speculation) admit(idx int64) bool {
	if idx >= s.settled.Load()+s.window {
		s.mu.Lock()
		for idx >= s.settled.Load()+s.window && !s.stopped.Load() {
			s.moved.Wait()
		}
		s.mu.Unlock()
	}
	return !s.stopped.Load()
}

// advance publishes the collector's cursor and decision to waiting
// workers.
func (s *speculation) advance(cursor int, decided bool) {
	s.mu.Lock()
	s.settled.Store(int64(cursor))
	s.stopped.Store(decided)
	s.moved.Broadcast()
	s.mu.Unlock()
}

func collectParallel[T any](c counters, progress func(done, total int), workers, n, maxAttempts int,
	run func(int) (T, error), accept func(T) bool) ([]T, error) {
	var (
		spec    = &speculation{window: 2 * int64(workers)}
		wg      sync.WaitGroup
		results = make(chan attemptResult[T], workers)
	)
	spec.moved.L = &spec.mu
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := spec.next.Add(1) - 1
				if idx >= int64(maxAttempts) || !spec.admit(idx) {
					return
				}
				v, err := run(int(idx))
				results <- attemptResult[T]{idx: int(idx), val: v, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Collector: processes results strictly in attempt order on the
	// calling goroutine. Out-of-order arrivals wait in pending.
	var (
		pending  = make(map[int]attemptResult[T], workers)
		out      = make([]T, 0, n)
		cursor   int
		finalErr error
		decided  bool
	)
	for r := range results {
		if decided {
			continue // drain speculative leftovers
		}
		pending[r.idx] = r
		for !decided {
			cur, ok := pending[cursor]
			if !ok {
				break
			}
			delete(pending, cursor)
			cursor++
			if cur.err != nil {
				finalErr = cur.err
				decided = true
				break
			}
			c.processed.Inc()
			if progress != nil {
				progress(cursor, maxAttempts)
			}
			if accept(cur.val) {
				c.accepted.Inc()
				out = append(out, cur.val)
				if len(out) == n {
					decided = true
					break
				}
			} else {
				c.rejected.Inc()
			}
			if cursor == maxAttempts {
				finalErr = &ExhaustedError{Accepted: len(out), Wanted: n, Attempts: maxAttempts}
				decided = true
			}
		}
		spec.advance(cursor, decided)
	}
	if finalErr != nil {
		return nil, finalErr
	}
	return out, nil
}

// Map runs n independent jobs and returns their results in index
// order. On error, the lowest-index error is returned (results of
// later jobs are discarded), matching a serial loop that stops at the
// first failure.
func Map[T any](opt Options, n int, run func(i int) (T, error)) ([]T, error) {
	return Collect(opt, n, n, run, func(T) bool { return true })
}
