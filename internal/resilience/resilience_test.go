package resilience

import (
	"math"
	"testing"
	"time"
)

// TestBreakerStateMachine walks the full closed → open → half-open → closed
// cycle and the half-open re-trip path.
func TestBreakerStateMachine(t *testing.T) {
	cfg := BreakerConfig{FailuresToOpen: 3, OpenFor: 10 * time.Second, HalfOpenProbes: 2}
	b := NewBreaker(cfg)
	now := time.Duration(0)

	if got := b.State(now); got != StateClosed {
		t.Fatalf("new breaker state = %v, want closed", got)
	}

	// Two failures interleaved with a success never trip: the counter is
	// consecutive.
	b.Record(now, false)
	b.Record(now, false)
	b.Record(now, true)
	b.Record(now, false)
	b.Record(now, false)
	if got := b.State(now); got != StateClosed {
		t.Fatalf("after interleaved failures state = %v, want closed", got)
	}

	// The third consecutive failure trips it open.
	from, to := b.Record(now, false)
	if from != StateClosed || to != StateOpen {
		t.Fatalf("trip transition = %v -> %v, want closed -> open", from, to)
	}
	if b.Allow(now) {
		t.Fatal("open breaker admitted a call")
	}

	// Before the cooldown it stays open; at the cooldown it half-opens and
	// admits exactly HalfOpenProbes probes.
	if got := b.State(now + 9*time.Second); got != StateOpen {
		t.Fatalf("state before cooldown = %v, want open", got)
	}
	now += 10 * time.Second
	if got := b.State(now); got != StateHalfOpen {
		t.Fatalf("state at cooldown = %v, want half-open", got)
	}
	if !b.Allow(now) || !b.Allow(now) {
		t.Fatal("half-open breaker refused a probe")
	}
	if b.Allow(now) {
		t.Fatal("half-open breaker admitted a third probe with HalfOpenProbes=2")
	}

	// One probe success is not enough; the second closes it.
	b.Record(now, true)
	if got := b.State(now); got != StateHalfOpen {
		t.Fatalf("state after first probe success = %v, want half-open", got)
	}
	from, to = b.Record(now, true)
	if from != StateHalfOpen || to != StateClosed {
		t.Fatalf("close transition = %v -> %v, want half-open -> closed", from, to)
	}
	if !b.Allow(now) {
		t.Fatal("closed breaker refused a call")
	}

	// Re-trip, half-open, then a probe failure re-opens and restarts the
	// cooldown from the failure time.
	for i := 0; i < 3; i++ {
		b.Record(now, false)
	}
	now += 10 * time.Second
	if !b.Allow(now) {
		t.Fatal("half-open breaker refused its probe after re-trip")
	}
	from, to = b.Record(now, false)
	if from != StateHalfOpen || to != StateOpen {
		t.Fatalf("probe-failure transition = %v -> %v, want half-open -> open", from, to)
	}
	if got := b.State(now + 9*time.Second); got != StateOpen {
		t.Fatalf("re-opened breaker state before new cooldown = %v, want open", got)
	}
	if got := b.State(now + 10*time.Second); got != StateHalfOpen {
		t.Fatalf("re-opened breaker state after new cooldown = %v, want half-open", got)
	}
}

// TestBreakerLateResultWhileOpen checks that a straggler result arriving
// after the trip leaves the open state untouched.
func TestBreakerLateResultWhileOpen(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailuresToOpen: 1, OpenFor: time.Minute})
	b.Record(0, false)
	from, to := b.Record(time.Second, true)
	if from != StateOpen || to != StateOpen {
		t.Fatalf("late result transition = %v -> %v, want open -> open", from, to)
	}
}

// TestManagerBreakerAccounting checks the manager-level wrapping: per-edge
// isolation, short-circuit and open counters, and transition callbacks.
func TestManagerBreakerAccounting(t *testing.T) {
	m := NewManager(Config{Breakers: &BreakerConfig{FailuresToOpen: 2, OpenFor: 5 * time.Second}}, 1)
	const ab, ac = 0, 1
	m.SetEdges([]string{"a->b", "a->c", "a->d"})
	var transitions []string
	m.OnTransition = func(now time.Duration, edge string, from, to BreakerState) {
		transitions = append(transitions, edge+":"+from.String()+"->"+to.String())
	}

	for i := 0; i < 2; i++ {
		if !m.AllowCall(0, ab) {
			t.Fatal("closed breaker denied a call")
		}
		m.RecordCallResult(0, ab, false)
	}
	if m.AllowCall(0, ab) {
		t.Fatal("open edge a->b admitted a call")
	}
	if !m.AllowCall(0, ac) {
		t.Fatal("edge a->c was affected by a->b's breaker")
	}

	c := m.Counters()
	if c.ShortCircuited != 1 {
		t.Errorf("ShortCircuited = %d, want 1", c.ShortCircuited)
	}
	if c.BreakerOpens != 1 {
		t.Errorf("BreakerOpens = %d, want 1", c.BreakerOpens)
	}
	if len(transitions) != 1 || transitions[0] != "a->b:closed->open" {
		t.Errorf("transitions = %v, want [a->b:closed->open]", transitions)
	}
	// a->d never carried a call, so it has no breaker to report.
	if got := m.BreakerEdges(); len(got) != 2 || got[0] != "a->b" || got[1] != "a->c" {
		t.Errorf("BreakerEdges = %v, want [a->b a->c]", got)
	}
	states := m.BreakerStates(0)
	if len(states) != 2 || states["a->b"] != StateOpen || states["a->c"] != StateClosed {
		t.Errorf("BreakerStates = %v", states)
	}
}

// TestRetryBudgetLedger checks the Finagle-style guarantee: retries never
// exceed Budget × first attempts, per calling service.
func TestRetryBudgetLedger(t *testing.T) {
	m := NewManager(Config{Retry: &RetryConfig{MaxAttempts: 4, Budget: 0.1}}, 1)

	const svc, other = 0, 1

	// 100 first attempts fund exactly 10 retries.
	for i := 0; i < 100; i++ {
		m.RecordAttempt(svc, 1)
	}
	granted := 0
	for i := 0; i < 50; i++ {
		if m.AllowRetry(svc) {
			granted++
			m.RecordAttempt(svc, 2)
		}
	}
	if granted != 10 {
		t.Errorf("granted retries = %d, want 10 (budget 0.1 x 100)", granted)
	}
	c := m.Counters()
	if c.Retries != 10 || c.RetriesDenied != 40 {
		t.Errorf("Retries = %d, RetriesDenied = %d, want 10, 40", c.Retries, c.RetriesDenied)
	}
	if amp := c.Amplification(); amp != 1.1 {
		t.Errorf("Amplification = %v, want 1.1", amp)
	}
	if (Counters{}).Amplification() != 1 {
		t.Error("zero counters amplification != 1")
	}

	// Ledgers are per calling service: a fresh service with no first
	// attempts gets nothing.
	if m.AllowRetry(other) {
		t.Error("service with zero first attempts was granted a retry")
	}

	// Budget 0 means unlimited.
	un := NewManager(Config{Retry: &RetryConfig{MaxAttempts: 4}}, 1)
	for i := 0; i < 20; i++ {
		if !un.AllowRetry(svc) {
			t.Fatal("unbudgeted retry denied")
		}
	}
}

// TestRetryPolicyDefaults checks policy resolution with and without config.
func TestRetryPolicyDefaults(t *testing.T) {
	var nilMgr *Manager
	if attempts, backoff := nilMgr.RetryPolicy(); attempts != 1 || backoff != 0 {
		t.Errorf("nil manager policy = (%d, %v), want (1, 0)", attempts, backoff)
	}
	m := NewManager(Config{Retry: &RetryConfig{}}, 1)
	if attempts, backoff := m.RetryPolicy(); attempts != 3 || backoff != 100*time.Millisecond {
		t.Errorf("default policy = (%d, %v), want (3, 100ms)", attempts, backoff)
	}
}

// TestChildDeadline checks the propagation min and the per-hop margin.
func TestChildDeadline(t *testing.T) {
	now := 10 * time.Second
	parent := 12 * time.Second

	// Without propagation the child keeps its own timeout.
	var nilMgr *Manager
	if d := nilMgr.ChildDeadline(now, parent, 6*time.Second); d != 16*time.Second {
		t.Errorf("nil manager child deadline = %v, want 16s", d)
	}

	m := NewManager(Config{Deadlines: &DeadlineConfig{Margin: 500 * time.Millisecond}}, 1)
	// Inherited (12s - 500ms = 11.5s) beats own (16s).
	if d := m.ChildDeadline(now, parent, 6*time.Second); d != 11500*time.Millisecond {
		t.Errorf("propagated child deadline = %v, want 11.5s", d)
	}
	// Own (10.2s) beats a distant parent deadline.
	if d := m.ChildDeadline(now, time.Minute, 200*time.Millisecond); d != 10200*time.Millisecond {
		t.Errorf("own-timeout child deadline = %v, want 10.2s", d)
	}
}

// TestShouldShedRamp checks the occupancy ramp: nothing at or below the
// threshold, MaxShed at the top, and a deterministic pure-hash roll.
func TestShouldShedRamp(t *testing.T) {
	m := NewManager(Config{Shedding: &ShedConfig{UtilThreshold: 0.4, MaxShed: 1}}, 7)

	for _, util := range []float64{0, 0.2, 0.4} {
		for req := uint64(0); req < 100; req++ {
			if m.ShouldShed(util, "c1", req) {
				t.Fatalf("shed at occupancy %v <= threshold", util)
			}
		}
	}
	// At twice the threshold with MaxShed 1, everything sheds.
	for req := uint64(0); req < 100; req++ {
		if !m.ShouldShed(0.8, "c1", req) {
			t.Fatalf("request %d not shed at ramp top with MaxShed 1", req)
		}
	}
	if got := m.Counters().Shed; got != 100 {
		t.Errorf("Shed counter = %d, want 100", got)
	}

	// Mid-ramp the decision is a pure function of (seed, container, request):
	// two managers with the same seed agree on every roll.
	a := NewManager(Config{Shedding: &ShedConfig{UtilThreshold: 0.4, MaxShed: 0.95}}, 42)
	b := NewManager(Config{Shedding: &ShedConfig{UtilThreshold: 0.4, MaxShed: 0.95}}, 42)
	shed := 0
	for req := uint64(0); req < 2000; req++ {
		x, y := a.ShouldShed(0.6, "c1", req), b.ShouldShed(0.6, "c1", req)
		if x != y {
			t.Fatalf("same-seed managers disagreed on request %d", req)
		}
		if x {
			shed++
		}
	}
	// Halfway up the ramp the probability is MaxShed/2 = 0.475; with 2000
	// deterministic uniform rolls the count lands well inside ±10 points.
	if frac := float64(shed) / 2000; math.Abs(frac-0.475) > 0.1 {
		t.Errorf("mid-ramp shed fraction = %v, want ~0.475", frac)
	}
}

// TestNilManagerAllowsEverything checks the nil-safe surface end to end: the
// disabled configuration must cost nothing and deny nothing.
func TestNilManagerAllowsEverything(t *testing.T) {
	m := NewManager(Config{}, 1)
	if m != nil {
		t.Fatal("NewManager with zero config should return nil")
	}
	m.SetEdges([]string{"a->b"})
	if !m.AllowCall(0, 0) {
		t.Error("nil manager denied a call")
	}
	if m.AllowRetry(0) {
		t.Error("nil manager granted a retry (retries are off without config)")
	}
	if m.ShouldShed(1, "c", 1) {
		t.Error("nil manager shed")
	}
	m.RecordAttempt(0, 1)
	m.RecordCallResult(0, 0, false)
	m.CountShed()
	m.CountDeadlineExceeded()
	if c := m.Counters(); c != (Counters{}) {
		t.Errorf("nil manager counters = %+v, want zero", c)
	}
	if m.BreakerStates(0) != nil || m.BreakerEdges() != nil {
		t.Error("nil manager reported breakers")
	}
}

// TestConfigValidate exercises the rejection paths.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Breakers: &BreakerConfig{FailuresToOpen: -1}},
		{Breakers: &BreakerConfig{OpenFor: -time.Second}},
		{Breakers: &BreakerConfig{HalfOpenProbes: -1}},
		{Retry: &RetryConfig{MaxAttempts: -1}},
		{Retry: &RetryConfig{Backoff: -time.Second}},
		{Retry: &RetryConfig{Budget: -0.1}},
		{Deadlines: &DeadlineConfig{Margin: -time.Second}},
		{Shedding: &ShedConfig{UtilThreshold: 1}},
		{Shedding: &ShedConfig{UtilThreshold: -0.1}},
		{Shedding: &ShedConfig{MaxShed: 1.5}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	good := Config{
		Breakers:  &BreakerConfig{FailuresToOpen: 5, OpenFor: 2 * time.Second, HalfOpenProbes: 1},
		Retry:     &RetryConfig{MaxAttempts: 4, Backoff: 150 * time.Millisecond, Budget: 0.1},
		Deadlines: &DeadlineConfig{Margin: 50 * time.Millisecond},
		Shedding:  &ShedConfig{UtilThreshold: 0.5, MaxShed: 0.95},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	if !good.Enabled() {
		t.Error("full config reports disabled")
	}
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
}
