// Package resilience implements the request-level cascading-failure
// defenses that keep a call-graph workload from melting down when one tier
// degrades: per-edge circuit breakers, client retries governed by a retry
// budget, deadline propagation from the root request down the chain, and
// utilization-triggered adaptive load shedding at saturated replicas.
//
// Everything is off by default — the zero Config is a no-op, and a nil
// *Manager answers every query with "allow" — so the paper's original
// independent-service scenarios pay nothing. Every probabilistic decision
// (shed rolls) is a pure hash of (seed, identity, request), never a shared
// random stream, so runs are byte-identical under the parallel RunSpec
// executor at any worker count.
package resilience

import (
	"fmt"
	"sort"
	"time"

	"hyscale/internal/sim"
)

// BreakerConfig parameterises the per-edge circuit breakers.
type BreakerConfig struct {
	// FailuresToOpen is the consecutive-failure count that trips a closed
	// breaker open. Zero means the default of 5.
	FailuresToOpen int `json:"failuresToOpen,omitempty"`
	// OpenFor is how long an open breaker short-circuits calls before
	// probing again (half-open). Zero means the default of 5s.
	OpenFor time.Duration `json:"openFor,omitempty"`
	// HalfOpenProbes is how many trial calls a half-open breaker admits;
	// all must succeed to close it, any failure re-opens it. Zero means 1.
	HalfOpenProbes int `json:"halfOpenProbes,omitempty"`
}

func (c BreakerConfig) failuresToOpen() int {
	if c.FailuresToOpen <= 0 {
		return 5
	}
	return c.FailuresToOpen
}

func (c BreakerConfig) openFor() time.Duration {
	if c.OpenFor <= 0 {
		return 5 * time.Second
	}
	return c.OpenFor
}

func (c BreakerConfig) halfOpenProbes() int {
	if c.HalfOpenProbes <= 0 {
		return 1
	}
	return c.HalfOpenProbes
}

// RetryConfig parameterises client retries of failed downstream calls.
type RetryConfig struct {
	// MaxAttempts bounds attempts per call slot, including the first.
	// Zero means the default of 3.
	MaxAttempts int `json:"maxAttempts,omitempty"`
	// Backoff is the fixed delay before a retry is issued. Zero means the
	// default of 100ms.
	Backoff time.Duration `json:"backoff,omitempty"`
	// Budget caps retry amplification per calling service, Finagle-style:
	// retries may never exceed Budget × first-attempt calls, so total
	// attempts stay ≤ (1 + Budget) × first attempts no matter how hard a
	// downstream tier fails. Zero means unlimited (no budget) — the
	// retry-storm configuration.
	Budget float64 `json:"budget,omitempty"`
}

func (c RetryConfig) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return 3
	}
	return c.MaxAttempts
}

func (c RetryConfig) backoff() time.Duration {
	if c.Backoff <= 0 {
		return 100 * time.Millisecond
	}
	return c.Backoff
}

// DeadlineConfig enables deadline propagation: a downstream call's deadline
// is the minimum of its own service timeout and the caller's remaining
// deadline, so work that can no longer help the root request is never
// started.
type DeadlineConfig struct {
	// Margin is subtracted per hop from the inherited deadline to cover
	// response transit back up the chain. Optional.
	Margin time.Duration `json:"margin,omitempty"`
}

// ShedConfig parameterises adaptive load shedding at saturated replicas.
type ShedConfig struct {
	// UtilThreshold is the admission-queue occupancy (inflight / queue
	// limit) above which a replica starts refusing a fraction of new
	// admissions. Queue depth, not CPU-over-allocation, is the shed signal:
	// replicas burst past their CPU allocation when the node has slack, but
	// a queue deeper than the deadline can drain is doomed work. The shed
	// probability ramps linearly from zero at the threshold to MaxShed at
	// twice the threshold (capped at occupancy 1). Zero means the default
	// of 0.9. Only replicas with a queue limit shed.
	UtilThreshold float64 `json:"utilThreshold,omitempty"`
	// MaxShed caps the shed probability at the top of the ramp. Zero means
	// the default of 0.95 — even a saturated replica keeps a trickle
	// flowing so recovery is observable.
	MaxShed float64 `json:"maxShed,omitempty"`
}

func (c ShedConfig) utilThreshold() float64 {
	if c.UtilThreshold <= 0 {
		return 0.9
	}
	return c.UtilThreshold
}

func (c ShedConfig) maxShed() float64 {
	if c.MaxShed <= 0 {
		return 0.95
	}
	return c.MaxShed
}

// Config selects which defenses a run enables. Nil sub-configs are off; the
// zero value disables everything.
type Config struct {
	Breakers  *BreakerConfig  `json:"breakers,omitempty"`
	Retry     *RetryConfig    `json:"retry,omitempty"`
	Deadlines *DeadlineConfig `json:"deadlines,omitempty"`
	Shedding  *ShedConfig     `json:"shedding,omitempty"`
}

// Enabled reports whether any defense is on.
func (c Config) Enabled() bool {
	return c.Breakers != nil || c.Retry != nil || c.Deadlines != nil || c.Shedding != nil
}

// Validate rejects out-of-range parameters.
func (c Config) Validate() error {
	if b := c.Breakers; b != nil {
		if b.FailuresToOpen < 0 {
			return fmt.Errorf("resilience: breakers.failuresToOpen must be >= 0")
		}
		if b.OpenFor < 0 {
			return fmt.Errorf("resilience: breakers.openFor must be >= 0")
		}
		if b.HalfOpenProbes < 0 {
			return fmt.Errorf("resilience: breakers.halfOpenProbes must be >= 0")
		}
	}
	if r := c.Retry; r != nil {
		if r.MaxAttempts < 0 {
			return fmt.Errorf("resilience: retry.maxAttempts must be >= 0")
		}
		if r.Backoff < 0 {
			return fmt.Errorf("resilience: retry.backoff must be >= 0")
		}
		if r.Budget < 0 {
			return fmt.Errorf("resilience: retry.budget must be >= 0")
		}
	}
	if d := c.Deadlines; d != nil && d.Margin < 0 {
		return fmt.Errorf("resilience: deadlines.margin must be >= 0")
	}
	if s := c.Shedding; s != nil {
		if s.UtilThreshold < 0 || s.UtilThreshold >= 1 {
			return fmt.Errorf("resilience: shedding.utilThreshold %v out of [0,1)", s.UtilThreshold)
		}
		if s.MaxShed < 0 || s.MaxShed > 1 {
			return fmt.Errorf("resilience: shedding.maxShed %v out of [0,1]", s.MaxShed)
		}
	}
	return nil
}

// BreakerState is a circuit breaker's position in its state machine.
type BreakerState int

// Breaker states. Closed passes traffic, Open short-circuits it, HalfOpen
// admits a bounded number of probes to test recovery.
const (
	StateClosed BreakerState = iota
	StateOpen
	StateHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// Breaker is one call-graph edge's circuit breaker: closed → open after
// FailuresToOpen consecutive failures, open → half-open after OpenFor, and
// half-open → closed after HalfOpenProbes consecutive probe successes (any
// probe failure re-opens). Probe admission is deterministic — the first K
// calls after the cooldown are the probes — so the state machine is a pure
// function of the call/result sequence and the clock.
type Breaker struct {
	cfg BreakerConfig

	state       BreakerState
	consecFails int
	openedAt    time.Duration
	probesOut   int
	probeOK     int
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker { return &Breaker{cfg: cfg} }

// State returns the current state, advancing Open → HalfOpen when the
// cooldown has elapsed at now.
func (b *Breaker) State(now time.Duration) BreakerState {
	if b.state == StateOpen && now >= b.openedAt+b.cfg.openFor() {
		b.state = StateHalfOpen
		b.probesOut = 0
		b.probeOK = 0
	}
	return b.state
}

// Allow reports whether a call through the edge may proceed at now. A
// half-open breaker admits only its first HalfOpenProbes calls as probes.
func (b *Breaker) Allow(now time.Duration) bool {
	switch b.State(now) {
	case StateClosed:
		return true
	case StateHalfOpen:
		if b.probesOut < b.cfg.halfOpenProbes() {
			b.probesOut++
			return true
		}
		return false
	default:
		return false
	}
}

// Record feeds the outcome of an admitted call back into the state machine.
func (b *Breaker) Record(now time.Duration, success bool) (from, to BreakerState) {
	from = b.State(now)
	switch from {
	case StateClosed:
		if success {
			b.consecFails = 0
		} else {
			b.consecFails++
			if b.consecFails >= b.cfg.failuresToOpen() {
				b.trip(now)
			}
		}
	case StateHalfOpen:
		if success {
			b.probeOK++
			if b.probeOK >= b.cfg.halfOpenProbes() {
				b.state = StateClosed
				b.consecFails = 0
			}
		} else {
			b.trip(now)
		}
	case StateOpen:
		// A late result from before the trip; the breaker is already open.
	}
	return from, b.state
}

func (b *Breaker) trip(now time.Duration) {
	b.state = StateOpen
	b.openedAt = now
	b.consecFails = 0
	b.probesOut = 0
	b.probeOK = 0
}

// Counters aggregates the run's resilience activity for reports, the obs
// journal and the HTTP API.
type Counters struct {
	// Shed counts admissions refused by overload shedding (including
	// back-pressure drops when every replica queue was full).
	Shed uint64 `json:"shed"`
	// Retries counts downstream call re-issues that were admitted.
	Retries uint64 `json:"retries"`
	// RetriesDenied counts retries the budget refused.
	RetriesDenied uint64 `json:"retriesDenied"`
	// DeadlineExceeded counts requests abandoned because their (possibly
	// propagated) deadline passed.
	DeadlineExceeded uint64 `json:"deadlineExceeded"`
	// ShortCircuited counts calls an open breaker failed fast.
	ShortCircuited uint64 `json:"shortCircuited"`
	// BreakerOpens counts closed/half-open → open transitions.
	BreakerOpens uint64 `json:"breakerOpens"`
	// FirstAttempts and TotalAttempts measure retry amplification:
	// TotalAttempts / FirstAttempts is the run's amplification factor.
	FirstAttempts uint64 `json:"firstAttempts"`
	TotalAttempts uint64 `json:"totalAttempts"`
}

// Amplification returns TotalAttempts / FirstAttempts (1 when no calls).
func (c Counters) Amplification() float64 {
	if c.FirstAttempts == 0 {
		return 1
	}
	return float64(c.TotalAttempts) / float64(c.FirstAttempts)
}

// budget is one calling service's retry ledger.
type budget struct {
	firstAttempts uint64
	retries       uint64
}

// Manager owns the per-edge breakers, per-service retry budgets, shed
// decisions and deadline math for one run. A nil Manager allows everything
// and records nothing, so call sites need no guards. Like the rest of the
// simulator it is single-goroutine.
//
// Edges and services are named by dense ordinals: an edge ordinal indexes
// the keys declared with SetEdges, a service ordinal is the caller's own
// (the platform's registration order).
type Manager struct {
	cfg  Config
	seed int64

	// edgeKeys names each edge ordinal for reports and OnTransition.
	edgeKeys []string
	// breakers is indexed by edge ordinal; an edge's breaker is created on
	// its first call, so reports list exactly the edges that carried one.
	breakers []*Breaker
	// budgets is indexed by calling-service ordinal, grown on demand.
	budgets  []budget
	counters Counters

	// OnTransition, when set, observes breaker state changes (for the obs
	// journal and metrics).
	OnTransition func(now time.Duration, edge string, from, to BreakerState)
}

// NewManager builds a manager, or nil when the config enables nothing —
// composing directly with the nil-safe methods.
func NewManager(cfg Config, seed int64) *Manager {
	if !cfg.Enabled() {
		return nil
	}
	return &Manager{cfg: cfg, seed: seed}
}

// SetEdges declares the call-graph edges, keys[i] naming edge ordinal i.
// Call it once, before the first call through any edge.
func (m *Manager) SetEdges(keys []string) {
	if m == nil {
		return
	}
	m.edgeKeys = keys
	m.breakers = make([]*Breaker, len(keys))
}

// Config returns the manager's configuration (zero for nil).
func (m *Manager) Config() Config {
	if m == nil {
		return Config{}
	}
	return m.cfg
}

// Counters returns the accumulated counters (zero for nil).
func (m *Manager) Counters() Counters {
	if m == nil {
		return Counters{}
	}
	return m.counters
}

// breaker returns the edge's breaker, creating it closed on first use.
func (m *Manager) breaker(edge int) *Breaker {
	b := m.breakers[edge]
	if b == nil {
		b = NewBreaker(*m.cfg.Breakers)
		m.breakers[edge] = b
	}
	return b
}

// AllowCall reports whether the breaker on edge admits a call at now. Denied
// calls count as short-circuited; they are failures to the caller but do not
// touch the downstream service or the retry ledger's first-attempt count.
func (m *Manager) AllowCall(now time.Duration, edge int) bool {
	if m == nil || m.cfg.Breakers == nil {
		return true
	}
	if m.breaker(edge).Allow(now) {
		return true
	}
	m.counters.ShortCircuited++
	return false
}

// RecordCallResult feeds an admitted call's outcome into the edge breaker.
func (m *Manager) RecordCallResult(now time.Duration, edge int, success bool) {
	if m == nil || m.cfg.Breakers == nil {
		return
	}
	from, to := m.breaker(edge).Record(now, success)
	if from != to {
		if to == StateOpen {
			m.counters.BreakerOpens++
		}
		if m.OnTransition != nil {
			m.OnTransition(now, m.edgeKeys[edge], from, to)
		}
	}
}

// BreakerStates returns every instantiated breaker's current state, keyed by
// edge, for the HTTP API and reports. Nil manager returns nil.
func (m *Manager) BreakerStates(now time.Duration) map[string]BreakerState {
	if m == nil {
		return nil
	}
	out := make(map[string]BreakerState)
	for edge, b := range m.breakers {
		if b != nil {
			out[m.edgeKeys[edge]] = b.State(now)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// BreakerEdges returns the instantiated breaker edges, sorted, for
// deterministic rendering.
func (m *Manager) BreakerEdges() []string {
	if m == nil {
		return nil
	}
	edges := make([]string, 0, len(m.breakers))
	for edge, b := range m.breakers {
		if b != nil {
			edges = append(edges, m.edgeKeys[edge])
		}
	}
	sort.Strings(edges)
	return edges
}

// budget returns the calling service's retry ledger.
func (m *Manager) budget(service int) *budget {
	if service >= len(m.budgets) {
		m.budgets = append(m.budgets, make([]budget, service+1-len(m.budgets))...)
	}
	return &m.budgets[service]
}

// RecordAttempt books one admitted downstream call attempt (1-based) into
// the calling service's retry ledger and the amplification counters.
func (m *Manager) RecordAttempt(service int, attempt int) {
	if m == nil {
		return
	}
	m.counters.TotalAttempts++
	bd := m.budget(service)
	if attempt <= 1 {
		m.counters.FirstAttempts++
		bd.firstAttempts++
	} else {
		m.counters.Retries++
		bd.retries++
	}
}

// RetryPolicy returns the effective retry parameters (attempt cap and
// backoff). With no retry config, max attempts is 1: failures are terminal.
func (m *Manager) RetryPolicy() (maxAttempts int, backoff time.Duration) {
	if m == nil || m.cfg.Retry == nil {
		return 1, 0
	}
	return m.cfg.Retry.maxAttempts(), m.cfg.Retry.backoff()
}

// AllowRetry consults service's retry budget for one more re-issue. The
// Finagle-style ledger guarantees retries ≤ Budget × first attempts, hence
// amplification ≤ 1 + Budget. Budget 0 means unlimited. Denials are counted.
func (m *Manager) AllowRetry(service int) bool {
	if m == nil || m.cfg.Retry == nil {
		return false
	}
	b := m.cfg.Retry.Budget
	if b <= 0 {
		return true
	}
	if bd := m.budget(service); float64(bd.retries+1) <= b*float64(bd.firstAttempts) {
		return true
	}
	m.counters.RetriesDenied++
	return false
}

// ChildDeadline composes a downstream call's deadline from its own service
// timeout and the caller's deadline. Without deadline propagation the child
// keeps its own timeout, as if it were a fresh client request.
func (m *Manager) ChildDeadline(now, parentDeadline time.Duration, childTimeout time.Duration) time.Duration {
	own := now + childTimeout
	if m == nil || m.cfg.Deadlines == nil {
		return own
	}
	inherited := parentDeadline - m.cfg.Deadlines.Margin
	if inherited < own {
		return inherited
	}
	return own
}

// ShouldShed decides whether a saturated replica refuses this admission.
// util is the replica's admission-queue occupancy (inflight over queue
// limit); above the threshold the shed probability ramps linearly to
// MaxShed at twice the threshold (or occupancy 1.0, whichever is lower), so
// a low threshold still bites instead of trickling up towards a full queue.
// The roll is a pure hash of (seed, container, request), so the decision is
// independent of evaluation order.
func (m *Manager) ShouldShed(util float64, containerID string, reqID uint64) bool {
	if m == nil || m.cfg.Shedding == nil {
		return false
	}
	threshold := m.cfg.Shedding.utilThreshold()
	if util <= threshold {
		return false
	}
	rampEnd := 2 * threshold
	if rampEnd > 1 {
		rampEnd = 1
	}
	p := (util - threshold) / (rampEnd - threshold) * m.cfg.Shedding.maxShed()
	if p > m.cfg.Shedding.maxShed() {
		p = m.cfg.Shedding.maxShed()
	}
	if sim.Roll(m.seed, containerID, reqID) < p {
		m.counters.Shed++
		return true
	}
	return false
}

// CountShed books a shed that happened outside ShouldShed (back-pressure
// drop when every replica queue was full).
func (m *Manager) CountShed() {
	if m != nil {
		m.counters.Shed++
	}
}

// CountDeadlineExceeded books one deadline-exceeded abandonment.
func (m *Manager) CountDeadlineExceeded() {
	if m != nil {
		m.counters.DeadlineExceeded++
	}
}
