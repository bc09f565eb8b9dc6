// Package core contains the paper's primary contribution: the autoscaling
// algorithms. It defines the algorithm interface — a pure decision function
// from a cluster snapshot to a scaling plan — and four implementations:
//
//   - Kubernetes: the horizontal CPU autoscaler of §IV-A1 (the baseline),
//   - NetworkHPA: the dedicated horizontal network scaler of §IV-A2,
//   - HyScaleCPU: the hybrid vertical+horizontal CPU algorithm of §IV-B1,
//   - HyScaleCPUMem: the CPU+memory hybrid of §IV-B2.
//
// Algorithms are deliberately decoupled from the simulator: they see only
// usage/requested statistics (what `docker stats` and the node managers
// provide) and emit actions (`docker update`, start replica, remove
// replica), so the same code could drive a real Docker cluster.
package core

import (
	"time"

	"hyscale/internal/resources"
)

// ServiceInfo is the static, per-microservice configuration an algorithm
// needs: identity, replica bounds, the utilization target, and the envelope
// for fresh replicas.
type ServiceInfo struct {
	// Name identifies the microservice.
	Name string
	// MinReplicas and MaxReplicas bound horizontal scaling.
	MinReplicas int
	MaxReplicas int
	// TargetUtil is the utilization target as a fraction (0.5 == 50 %),
	// applied to whichever metric the algorithm scales on.
	TargetUtil float64
	// BaselineMemMB is the service's resident application/image memory; a
	// node must advertise at least this much for a new replica (§IV-B1).
	BaselineMemMB float64
	// InitialAlloc is the resource request a fresh replica starts with.
	InitialAlloc resources.Vector
}

// ReplicaStats is one replica's observed state at snapshot time.
type ReplicaStats struct {
	// ContainerID identifies the replica's container.
	ContainerID string
	// NodeID is the hosting machine.
	NodeID string
	// Requested is the replica's current resource allocation (CPU request /
	// memory limit / tc cap). Vertical scaling rewrites it.
	Requested resources.Vector
	// Usage is the measured consumption over the last stats window.
	Usage resources.Vector
	// Routable reports whether the replica is Running (not still starting).
	Routable bool
	// Inflight is the number of requests resident in the replica (queued plus
	// executing) at snapshot time — the queue-depth signal multi-metric
	// scalers read.
	Inflight int
}

// ServiceStats couples a service's configuration with its live replicas,
// listed in creation order (oldest first).
type ServiceStats struct {
	Info     ServiceInfo
	Replicas []ReplicaStats
}

// NodeStats is one machine's advertised state at snapshot time.
type NodeStats struct {
	// ID identifies the node.
	ID string
	// Capacity is the machine's total resources.
	Capacity resources.Vector
	// Available is capacity minus current allocations (what the node
	// "advertises" for placement).
	Available resources.Vector
	// Hosts lists the services with a replica on this node.
	Hosts []string
}

// HostsService reports whether the node already hosts a replica of the
// service.
func (n NodeStats) HostsService(service string) bool {
	for _, s := range n.Hosts {
		if s == service {
			return true
		}
	}
	return false
}

// Snapshot is the Monitor's cluster-wide view handed to an algorithm each
// decision period.
type Snapshot struct {
	// Now is the simulated time of the snapshot.
	Now time.Duration
	// Services holds per-service stats in deterministic order.
	Services []ServiceStats
	// Nodes holds per-node stats in deterministic order.
	Nodes []NodeStats
}

// Action is one scaling decision. Exactly one of the concrete types below.
type Action interface{ isAction() }

// VerticalScale adjusts a container's allocation in place — the simulated
// `docker update`. Vertical actions are exempt from rescale-interval
// throttling (§IV-B1).
type VerticalScale struct {
	ContainerID string
	// NewAlloc replaces the container's requested resources.
	NewAlloc resources.Vector
}

// ScaleOut starts a new replica of Service on Node with the given initial
// allocation.
type ScaleOut struct {
	Service string
	NodeID  string
	Alloc   resources.Vector
}

// ScaleIn removes the container (killing its in-flight requests).
type ScaleIn struct {
	ContainerID string
}

func (VerticalScale) isAction() {}
func (ScaleOut) isAction()      {}
func (ScaleIn) isAction()       {}

// Plan is an ordered list of actions; the Monitor applies them in order so
// resources freed early in the plan can be consumed later in it.
type Plan struct {
	Actions []Action
}

// Empty reports whether the plan does nothing.
func (p Plan) Empty() bool { return len(p.Actions) == 0 }

// Algorithm turns cluster snapshots into scaling plans. Implementations may
// keep internal state (rescale-interval clocks) but must be deterministic
// given the same snapshot sequence.
type Algorithm interface {
	// Name returns a short identifier used in reports ("kubernetes",
	// "hybrid", "hybridmem", "network").
	Name() string
	// Decide computes the scaling plan for the snapshot.
	Decide(snap Snapshot) Plan
}

// Config holds the knobs shared by the algorithms, preloaded with the
// paper's experimental settings.
type Config struct {
	// ScaleUpInterval is the minimum time between horizontal scale-up
	// operations per service (paper: 3 s).
	ScaleUpInterval time.Duration
	// ScaleDownInterval is the minimum time between horizontal scale-down
	// operations per service (paper: 50 s).
	ScaleDownInterval time.Duration
	// Tolerance is Kubernetes' thrash guard: no rescale while
	// |avg(util)/target − 1| <= Tolerance (paper: 0.1).
	Tolerance float64
	// MinReplicaCPU is HyScale's vertical-removal threshold: a replica
	// scaled below this many CPUs is removed entirely (paper: 0.1).
	MinReplicaCPU float64
	// MinScaleOutCPU is the minimum CPU a node must advertise — and a new
	// replica receives — for a HyScale horizontal scale-out (paper: 0.25).
	MinScaleOutCPU float64
	// MemHeadroom derates the memory-removal threshold: a replica whose
	// memory request has been reclaimed to below baseline·(1+MemHeadroom)
	// is considered memory-idle.
	MemHeadroom float64
	// Placement selects the node-choice heuristic for new replicas
	// (spread, the default, or binpack).
	Placement Placement
}

// DefaultConfig returns the paper's experimental settings.
func DefaultConfig() Config {
	return Config{
		ScaleUpInterval:   3 * time.Second,
		ScaleDownInterval: 50 * time.Second,
		Tolerance:         0.1,
		MinReplicaCPU:     0.1,
		MinScaleOutCPU:    0.25,
		MemHeadroom:       0.10,
	}
}
