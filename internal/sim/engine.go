// Package sim provides a deterministic discrete-event simulation engine: a
// virtual clock, an event heap, and periodic tasks. Every experiment in this
// repository runs on top of it, which is what makes hour-long cluster
// benchmarks reproducible in milliseconds of wall time.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Event is a callback scheduled to run at a simulated instant. The engine
// passes itself so events can schedule follow-up events.
type Event func(e *Engine)

// IndexedEvent is a batched callback scheduled with ScheduleBatch: it is
// invoked once per item index in [start, start+count). A single IndexedEvent
// closure serves an arbitrarily large batch, so bulk request injection stops
// paying one closure allocation (and one heap entry) per request.
type IndexedEvent func(e *Engine, idx int)

type scheduledEvent struct {
	at   time.Duration
	seq  uint64 // tie-breaker: FIFO among events at the same instant
	call Event
	// batch fields: when batch is non-nil this entry fires batch(e, i) for
	// i in [start, start+count) instead of call.
	batch IndexedEvent
	start int
	count int
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all scheduled events run on the caller's goroutine inside
// Run.
//
// The event queue is a hand-rolled binary min-heap of event VALUES rather
// than container/heap over pointers: pushing through container/heap boxes
// every event into an interface{}, which costs one allocation per scheduled
// event. At millions of events per macro experiment that dominated GC time
// (see BenchmarkEngineScheduleRun).
type Engine struct {
	now     time.Duration
	seq     uint64
	queue   []scheduledEvent
	rng     *rand.Rand
	stopped bool
	clamped uint64
}

// ErrStopped is returned by Run when Stop was called before the horizon.
var ErrStopped = errors.New("sim: engine stopped")

// New creates an engine with its clock at zero and a deterministic RNG
// seeded with seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand exposes the engine's deterministic random source. Experiments must
// draw all randomness from here to stay reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// eventLess orders events by (at, seq): earliest first, FIFO within an
// instant. seq is unique, so this is a total order.
func eventLess(a, b scheduledEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// pushHeap inserts ev into the binary min-heap backed by *q.
func pushHeap(q *[]scheduledEvent, ev scheduledEvent) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// popHeap removes and returns the minimum of the heap backed by *q.
func popHeap(q *[]scheduledEvent) scheduledEvent {
	h := *q
	root := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = scheduledEvent{} // drop the closure so GC can reclaim it
	h = h[:n]
	*q = h
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && eventLess(h[left], h[smallest]) {
			smallest = left
		}
		if right < n && eventLess(h[right], h[smallest]) {
			smallest = right
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return root
}

// Schedule runs fn at the absolute simulated time at. Scheduling in the past
// is an error: the event fires immediately at the current time instead, which
// keeps the clock monotonic, and Schedule both reports it and counts it in
// Clamped so callers that drop the error (periodic ticks, fire-and-forget
// hooks) still leave a visible trace.
func (e *Engine) Schedule(at time.Duration, fn Event) error {
	var err error
	if at < e.now {
		e.clamped++
		err = fmt.Errorf("sim: scheduling at %v before now %v; clamped", at, e.now)
		at = e.now
	}
	e.seq++
	pushHeap(&e.queue, scheduledEvent{at: at, seq: e.seq, call: fn})
	return err
}

// ScheduleBatch runs fn(e, i) for every i in [start, start+count) at the
// absolute simulated time at, as one heap entry holding one shared closure.
// The batch occupies a single (at, seq) slot, so relative ordering against
// every other event is exactly as if the items had been scheduled back-to-back
// with consecutive sequence numbers; within the batch, items fire in index
// order. Scheduling in the past clamps to now like Schedule. A Stop issued by
// an item halts the batch after that item; the remainder stays queued at the
// same (at, seq) and resumes with the next Run.
func (e *Engine) ScheduleBatch(at time.Duration, start, count int, fn IndexedEvent) error {
	if count <= 0 {
		return nil
	}
	var err error
	if at < e.now {
		e.clamped++
		err = fmt.Errorf("sim: scheduling at %v before now %v; clamped", at, e.now)
		at = e.now
	}
	e.seq++
	pushHeap(&e.queue, scheduledEvent{at: at, seq: e.seq, batch: fn, start: start, count: count})
	return err
}

// ScheduleAfter runs fn after delay relative to the current simulated time.
// Negative delays are clamped to zero and counted in Clamped.
func (e *Engine) ScheduleAfter(delay time.Duration, fn Event) {
	if delay < 0 {
		e.clamped++
		delay = 0
	}
	// Scheduling relative to now can never be in the past.
	_ = e.Schedule(e.now+delay, fn)
}

// SchedulePeriodic runs fn every interval, starting at start, until the
// engine stops or the run horizon is reached. fn runs before the next
// occurrence is scheduled, so a task can call Stop to cancel the series.
func (e *Engine) SchedulePeriodic(start, interval time.Duration, fn Event) error {
	if interval <= 0 {
		return fmt.Errorf("sim: periodic interval must be positive, got %v", interval)
	}
	var tick Event
	tick = func(e *Engine) {
		fn(e)
		if !e.stopped {
			// Relative to now, so this cannot clamp; Clamped still counts it
			// if an fn rewinds its own schedule somehow.
			_ = e.Schedule(e.now+interval, tick)
		}
	}
	return e.Schedule(start, tick)
}

// Clamped returns how many events were scheduled in the past (or with a
// negative delay) and silently clamped to "now". A non-zero count after a run
// means some component computed a stale timestamp — the class of bug that
// used to vanish into dropped error returns.
func (e *Engine) Clamped() uint64 { return e.clamped }

// Stop halts the run after the current event returns. Pending events remain
// queued and a subsequent Run call resumes them.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue drains or the clock
// would pass horizon. Events scheduled exactly at the horizon still run. It
// returns ErrStopped if Stop was called, otherwise nil.
func (e *Engine) Run(horizon time.Duration) error {
	e.stopped = false
	for len(e.queue) > 0 {
		if e.queue[0].at > horizon {
			// Leave future events queued; advance the clock to the horizon so
			// repeated Run calls see a consistent notion of "now".
			e.now = horizon
			return nil
		}
		next := popHeap(&e.queue)
		e.now = next.at
		if next.batch != nil {
			for i := 0; i < next.count; i++ {
				next.batch(e, next.start+i)
				if e.stopped {
					// Requeue the unfired remainder at the original (at, seq)
					// so a later Run resumes exactly where the batch stopped.
					if rest := next.count - i - 1; rest > 0 {
						pushHeap(&e.queue, scheduledEvent{at: e.now, seq: next.seq,
							batch: next.batch, start: next.start + i + 1, count: rest})
					}
					return ErrStopped
				}
			}
			continue
		}
		next.call(e)
		if e.stopped {
			return ErrStopped
		}
	}
	if e.now < horizon {
		e.now = horizon
	}
	return nil
}

// Pending returns the number of queued events, mainly for tests and
// diagnostics.
func (e *Engine) Pending() int { return len(e.queue) }
