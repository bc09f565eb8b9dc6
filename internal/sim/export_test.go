package sim

import "time"

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

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }
