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
	// Metrics is the run's metric list (platform.World.Metrics) at the end
	// of the run; the report's control-plane line renders it with
	// TextLines.
	Metrics []Series
}
