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
	"fmt"
	"time"

	"hyscale/internal/resources"
)

// ServiceInfo is the static, per-microservice configuration an algorithm
// needs: identity, replica bounds, the utilization target, and the envelope
// for fresh replicas.
type ServiceInfo struct {
	// Name identifies the microservice in journals, events and NodeStats.Hosts.
	Name string
	// Ord is the service's registration ordinal, which the control plane
	// assigns: the key an algorithm's per-service memory and every Action
	// use. Services of one snapshot have distinct Ords.
	Ord int
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
	// Slot is the host's ledger slot: its index in Snapshot.Nodes when the
	// snapshot lists it, else a slot at or past len(Nodes) that every
	// replica on the same unlisted host shares. IndexHosts fills it.
	Slot int
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

// Snapshot is the Monitor's cluster-wide view handed to an algorithm each
// decision period.
type Snapshot struct {
	// Now is the simulated time of the snapshot.
	Now time.Duration
	// Services holds per-service stats in deterministic order.
	Services []ServiceStats
	// Nodes holds per-node stats in deterministic order, one per node ID.
	Nodes []NodeStats
	// Slots is the size of the node-availability ledger: len(Nodes) plus
	// one slot per distinct host that replicas name but Nodes does not
	// list (see ReplicaStats.Slot).
	Slots int
	// Epoch identifies the producer's snapshot, nonzero when its replica
	// and node ordinals can be resolved back by the producer. Plans carry
	// it back (Plan.Epoch). Zero for a hand-built snapshot.
	Epoch uint64
}

// IndexHosts fills every replica's Slot and the snapshot's Slots from the
// node IDs: a listed host's slot is its index in Nodes, and unlisted hosts
// get slots past the end in order of first appearance. A producer that
// tracks its hosts by ordinal fills them itself; hand-built snapshots call
// this once. It panics when two services share an Ord, which would make
// them share an algorithm's memory.
func (s *Snapshot) IndexHosts() {
	for i, svc := range s.Services {
		for _, prev := range s.Services[:i] {
			if prev.Info.Ord == svc.Info.Ord {
				panic(fmt.Sprintf("core: services %q and %q share ordinal %d", prev.Info.Name, svc.Info.Name, svc.Info.Ord))
			}
		}
	}
	slot := make(map[string]int, len(s.Nodes))
	for i, n := range s.Nodes {
		if _, dup := slot[n.ID]; !dup {
			slot[n.ID] = i
		}
	}
	s.Slots = len(s.Nodes)
	for i := range s.Services {
		reps := s.Services[i].Replicas
		for j := range reps {
			k, ok := slot[reps[j].NodeID]
			if !ok {
				k = s.Slots
				slot[reps[j].NodeID] = k
				s.Slots++
			}
			reps[j].Slot = k
		}
	}
}

// ActionKind tells the scaling actions apart.
type ActionKind uint8

// Action kinds.
const (
	// VerticalScale adjusts a container's allocation in place — the
	// simulated `docker update`. Vertical actions are exempt from
	// rescale-interval throttling (§IV-B1).
	VerticalScale ActionKind = iota + 1
	// ScaleOut starts a new replica of a service on a node.
	ScaleOut
	// ScaleIn removes a container (killing its in-flight requests).
	ScaleIn
)

// Action is one scaling decision, a plain value: Kind says which fields
// apply. A one-byte reason code would fit beside Kind.
type Action struct {
	Kind ActionKind
	// ContainerID is the replica a VerticalScale resizes or a ScaleIn
	// removes.
	ContainerID string
	// NodeID is the node a ScaleOut places the replica on.
	NodeID string
	// Alloc is a VerticalScale's new allocation, replacing the container's
	// requested resources, or a ScaleOut's initial allocation.
	Alloc resources.Vector
	// Svc is 1 + the acted-on service's ServiceInfo.Ord, on every kind of
	// action; zero means unset. Replica is 1 + the target's flat ordinal in
	// the snapshot the action was planned from (its position among every
	// service's replicas, in order), for a VerticalScale or ScaleIn: the
	// monitor applies a plan's vertical and scale-in actions only through
	// it. Node is 1 + a ScaleOut's node index in that snapshot's Nodes, zero
	// for a scale-out placed when it executes. Queued work (retries,
	// re-placements) outlives its snapshot, so the monitor resolves it by
	// Svc and its container by ContainerID.
	Svc, Replica, Node int32
}

// Resize builds a vertical action that sets the container's allocation.
func Resize(containerID string, alloc resources.Vector) Action {
	return Action{Kind: VerticalScale, ContainerID: containerID, Alloc: alloc}
}

// StartOn builds a scale-out that starts a replica of the service whose
// ServiceInfo.Ord is ord on node nodeID with the given allocation. An empty
// nodeID leaves the placement to the executor.
func StartOn(ord int, nodeID string, alloc resources.Vector) Action {
	return Action{Kind: ScaleOut, Svc: int32(ord + 1), NodeID: nodeID, Alloc: alloc}
}

// Remove builds a scale-in of the container.
func Remove(containerID string) Action {
	return Action{Kind: ScaleIn, ContainerID: containerID}
}

// Plan is an ordered list of actions; the Monitor applies them in order so
// resources freed early in the plan can be consumed later in it. A plan an
// algorithm returns from Decide may alias the algorithm's scratch: it is
// valid until that algorithm's next Decide, the same contract the Monitor
// gives its Snapshot.
type Plan struct {
	Actions []Action
	// Epoch is the Epoch of the snapshot the plan was decided from.
	Epoch uint64
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
	// Decide computes the scaling plan for the snapshot. The plan carries
	// snap's Epoch, every action its service's Svc ordinal, and each
	// vertical and scale-in its Replica ordinal.
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
