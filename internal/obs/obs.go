// Package obs is the decision-trace observability layer: a run observer
// that journals every scaling decision the Monitor attempts (with the
// observed per-service inputs that motivated it and the attempt's outcome,
// including the hardened control plane's retry/abandon/requeue paths) and
// appends per-service time series — replica count, cpu-shares, NIC
// utilisation, interval response time and failure rate — sampled on the
// monitor period.
//
// The layer is zero-overhead when disabled: every producer holds a *Journal
// that may be nil, and all Journal methods are nil-receiver-safe, so
// disabled runs execute exactly the code they did before this package
// existed. One switch enables it, platform.Config.Observe: the facade's
// SimConfig embeds that config, runner.RunSpec.Observe sets it, and
// hyscale-bench -report sets it on every run. Each run owns an isolated
// Journal, so the parallel executor's output stays byte-identical for any
// worker count.
//
// Artifacts: Journal.WriteJSONL emits one JSON object per decision,
// Journal.WriteSeriesCSV emits the per-service time series, and
// WriteReportDir renders a Markdown run report with unicode sparkline
// charts and a decision-timeline table (the format behind hyscale-bench
// -report and EXPERIMENTS.md's causal claims).
package obs

import (
	"time"

	"hyscale/internal/metrics"
	"hyscale/internal/resources"
)

// Kind classifies a scaling action.
type Kind string

// The three action kinds the Monitor executes.
const (
	KindVertical Kind = "vertical"  // docker update of an existing replica
	KindScaleOut Kind = "scale-out" // start a new replica
	KindScaleIn  Kind = "scale-in"  // remove a replica
)

// Outcome is what became of one action attempt.
type Outcome string

// Attempt outcomes. Requeued and Abandoned come from the hardened monitor's
// retry machinery; Moot means the target disappeared before execution;
// Overtaken means a retried scale-out found the service already at its
// replica ceiling; Rejected means the node refused the new allocation.
const (
	OutcomeApplied   Outcome = "applied"
	OutcomeRequeued  Outcome = "requeued"
	OutcomeAbandoned Outcome = "abandoned"
	OutcomeRejected  Outcome = "rejected"
	OutcomeOvertaken Outcome = "overtaken"
	OutcomeMoot      Outcome = "moot"
)

// EventKind classifies a self-healing control-plane event (failure-detector
// transitions, reconcile actions, checkpoint restores).
type EventKind string

// Self-healing event kinds, emitted by the Monitor's detector/reconciler.
const (
	EventNodeSuspect       EventKind = "node-suspect"
	EventNodeDead          EventKind = "node-dead"
	EventNodeRecovered     EventKind = "node-recovered"
	EventReconcileEnqueue  EventKind = "reconcile-enqueue"
	EventReconcileCancel   EventKind = "reconcile-cancel"
	EventReplicaReplaced   EventKind = "replica-replaced"
	EventReadopted         EventKind = "replica-readopted"
	EventStaleDrained      EventKind = "stale-drained"
	EventCheckpointRestore EventKind = "checkpoint-restore"
	EventColdRestart       EventKind = "cold-restart"
)

// Zone disaster-recovery event kinds, emitted by the zoned control plane when
// a collapsed zone's services are re-homed into surviving zones and when they
// migrate back after the zone heals. Event.Detail carries the zone move
// ("zone 3 -> zone 5").
const (
	EventZoneEvacuate EventKind = "zone-evacuate"
	EventZoneReadopt  EventKind = "zone-readopt"
)

// Circuit-breaker event kinds, emitted by the resilience layer on breaker
// state transitions. Event.Detail carries the call-graph edge ("a->b").
const (
	EventBreakerOpen     EventKind = "breaker-open"
	EventBreakerHalfOpen EventKind = "breaker-half-open"
	EventBreakerClose    EventKind = "breaker-close"
)

// EventScalerRecommend is emitted by the multi-metric scaler manager
// whenever its merged recommendation differs from a service's current
// replica count. Event.Detail carries the per-scaler breakdown
// ("service=api merged=5 current=3 cpu=5 memory=1 net=2 queue=1").
const EventScalerRecommend EventKind = "scaler-recommend"

// Event is one self-healing occurrence: a detector transition, a reconcile
// step, or a monitor restart.
type Event struct {
	// At is the simulated time of the event.
	At time.Duration `json:"-"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// Node is the machine concerned (empty for monitor restarts).
	Node string `json:"node,omitempty"`
	// Service and Container narrow replica-level events.
	Service   string `json:"service,omitempty"`
	Container string `json:"container,omitempty"`
	// Detail is a short human-readable annotation.
	Detail string `json:"detail,omitempty"`
}

// ServiceObserved is the aggregate usage the Monitor observed for one
// service in the snapshot that motivated a decision — the algorithm's
// actual inputs.
type ServiceObserved struct {
	// CPU, MemMB and NetMbps sum measured usage across the service's
	// replicas.
	CPU     float64 `json:"cpu"`
	MemMB   float64 `json:"memMB"`
	NetMbps float64 `json:"netMbps"`
	// RequestedCPU sums the replicas' current CPU allocations, the
	// denominator of every utilisation formula.
	RequestedCPU float64 `json:"requestedCPU"`
	// Replicas is the live replica count at snapshot time.
	Replicas int `json:"replicas"`
}

// Decision is one attempt at one scaling action.
type Decision struct {
	// At is the simulated time of this attempt.
	At time.Duration `json:"-"`
	// Service is the microservice the action concerns.
	Service string `json:"service"`
	// Kind is the action class.
	Kind Kind `json:"kind"`
	// Container is the target replica (vertical, scale-in) or the replica
	// created by a successful scale-out.
	Container string `json:"container,omitempty"`
	// Node is the target machine (scale-out) or the container's host.
	Node string `json:"node,omitempty"`
	// Alloc is the allocation the action requested (new vertical size, or a
	// fresh replica's initial envelope). Zero for scale-ins.
	Alloc resources.Vector `json:"alloc"`
	// Observed is the service's aggregate usage in the snapshot that
	// motivated the decision (last-known for retried attempts).
	Observed ServiceObserved `json:"observed"`
	// Attempt counts prior executions of this action: 0 is the first try,
	// >0 is a hardened-monitor retry.
	Attempt int `json:"attempt"`
	// Outcome is what became of this attempt.
	Outcome Outcome `json:"outcome"`
}

// Sample is one per-service time-series point, taken each monitor period.
// Interval quantities cover the window since the previous sample; the
// cumulative failure percentage is the run total so far.
type Sample struct {
	// At is the simulated sample time.
	At time.Duration
	// Service is the microservice sampled.
	Service string
	// Replicas is the live replica count.
	Replicas int
	// CPUShares sums the replicas' allocated CPU (the docker cpu-shares
	// analogue, in cores).
	CPUShares float64
	// CPUUsage sums measured CPU consumption across replicas (cores).
	CPUUsage float64
	// NetMbps sums measured egress bandwidth across replicas.
	NetMbps float64
	// IntervalCompleted and IntervalFailed count request outcomes inside
	// this sample window.
	IntervalCompleted uint64
	IntervalFailed    uint64
	// IntervalMean is the mean response time of the window's completions
	// (zero when none completed).
	IntervalMean time.Duration
	// CumFailedPct is the cumulative failed-request percentage up to At.
	CumFailedPct float64
}

// IntervalFailedPct returns the window's failure percentage (zero when the
// window saw no traffic).
func (s Sample) IntervalFailedPct() float64 {
	total := s.IntervalCompleted + s.IntervalFailed
	if total == 0 {
		return 0
	}
	return 100 * float64(s.IntervalFailed) / float64(total)
}

// svcCounters tracks a service's previous cumulative counters so samples can
// report interval deltas.
type svcCounters struct {
	completed uint64
	failed    uint64
	totalLat  time.Duration
}

// Journal is one run's decision trace and time series. It is not safe for
// concurrent use (the simulation is single-threaded); every run owns its
// own instance. All methods tolerate a nil receiver, which is the entire
// disabled path.
type Journal struct {
	decisions []Decision
	samples   []Sample
	events    []Event
	prev      map[string]svcCounters
}

// NewJournal returns an empty journal.
func NewJournal() *Journal {
	return &Journal{prev: make(map[string]svcCounters)}
}

// Enabled reports whether the journal is live (non-nil).
func (j *Journal) Enabled() bool { return j != nil }

// Decision appends one action-attempt record. No-op on a nil journal.
func (j *Journal) Decision(d Decision) {
	if j == nil {
		return
	}
	j.decisions = append(j.decisions, d)
}

// Event appends one self-healing event record. No-op on a nil journal.
func (j *Journal) Event(e Event) {
	if j == nil {
		return
	}
	j.events = append(j.events, e)
}

// Events returns the journal's self-healing events in emission order (nil
// journal: none).
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	return j.events
}

// EventCounts tallies self-healing events by kind.
func (j *Journal) EventCounts() map[EventKind]int {
	if j == nil {
		return nil
	}
	out := make(map[EventKind]int)
	for _, e := range j.events {
		out[e.Kind]++
	}
	return out
}

// Sample appends one per-service series point from cumulative counters,
// computing the interval deltas against the service's previous sample.
// No-op on a nil journal.
func (j *Journal) Sample(at time.Duration, service string, replicas int,
	cpuShares, cpuUsage, netMbps float64,
	completed, failed uint64, totalLat time.Duration) {
	if j == nil {
		return
	}
	p := j.prev[service]
	s := Sample{
		At:        at,
		Service:   service,
		Replicas:  replicas,
		CPUShares: cpuShares,
		CPUUsage:  cpuUsage,
		NetMbps:   netMbps,
	}
	if completed >= p.completed {
		s.IntervalCompleted = completed - p.completed
	}
	if failed >= p.failed {
		s.IntervalFailed = failed - p.failed
	}
	if s.IntervalCompleted > 0 && totalLat >= p.totalLat {
		s.IntervalMean = (totalLat - p.totalLat) / time.Duration(s.IntervalCompleted)
	}
	if total := completed + failed; total > 0 {
		s.CumFailedPct = 100 * float64(failed) / float64(total)
	}
	j.prev[service] = svcCounters{completed: completed, failed: failed, totalLat: totalLat}
	j.samples = append(j.samples, s)
}

// Decisions returns the journal's decision records in emission order (nil
// journal: none).
func (j *Journal) Decisions() []Decision {
	if j == nil {
		return nil
	}
	return j.decisions
}

// Samples returns the journal's series samples in emission order (nil
// journal: none).
func (j *Journal) Samples() []Sample {
	if j == nil {
		return nil
	}
	return j.samples
}

// Services returns the distinct sampled service names in first-seen order.
func (j *Journal) Services() []string {
	if j == nil {
		return nil
	}
	var names []string
	seen := make(map[string]bool)
	for _, s := range j.samples {
		if !seen[s.Service] {
			seen[s.Service] = true
			names = append(names, s.Service)
		}
	}
	return names
}

// ServiceSamples returns the samples of one service in time order.
func (j *Journal) ServiceSamples(service string) []Sample {
	if j == nil {
		return nil
	}
	var out []Sample
	for _, s := range j.samples {
		if s.Service == service {
			out = append(out, s)
		}
	}
	return out
}

// OutcomeCounts tallies decisions by outcome.
func (j *Journal) OutcomeCounts() map[Outcome]int {
	if j == nil {
		return nil
	}
	out := make(map[Outcome]int)
	for _, d := range j.decisions {
		out[d.Outcome]++
	}
	return out
}

// RunReport couples one run's identity and aggregate summary with its
// journal — the unit WriteReportDir renders.
type RunReport struct {
	// Name is the RunSpec name (unique within a report).
	Name string
	// Label is the human row label (defaults to Name upstream).
	Label string
	// Algorithm names the autoscaler driving the run.
	Algorithm string
	// Seed is the resolved run seed.
	Seed int64
	// Duration is the simulated horizon.
	Duration time.Duration
	// Summary is the run's aggregate request statistics.
	Summary metrics.Summary
	// Journal is the run's decision trace and series (may be nil).
	Journal *Journal
	// Counters are the run's control-plane counters (hardening, faults and
	// self-healing recovery), in a fixed render order. Kept as plain pairs
	// so obs stays import-free of the monitor package.
	Counters []Counter
}

// Counter is one named cumulative control-plane counter attached to a run
// report.
type Counter struct {
	Name  string
	Value uint64
}
