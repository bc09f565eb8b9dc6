package core

import (
	"slices"
	"time"

	"hyscale/internal/resources"
)

// Round is one decision round's planning state, shared by every algorithm:
// the plan under construction, the node-availability ledger, tentative
// replica counts, the containers scheduled for removal and pending
// vertical allocations. An algorithm builds one per Decide call with
// NewRound and ends it with Plan; nothing in it outlives the call. DESIGN.md
// §5 states the ledger's rules; the asymmetry that matters is that ScaleIn
// never credits a node, so only an algorithm that calls Credit (HyScale)
// lets later services reuse capacity freed within the round.
type Round struct {
	snap      Snapshot
	placement Placement
	plan      Plan
	avail     map[string]resources.Vector
	count     []int
	removed   map[string]bool
	resized   map[string]resources.Vector
	// resizeOrder lists resized containers in first-resize order, the
	// order Plan emits their VerticalScale actions in.
	resizeOrder []string
	// placed is reused by every Pick call: the nodes this round has
	// already scaled the avoided service out onto.
	placed []string
}

// NewRound starts a round over snap. placement selects the node-choice
// heuristic Pick applies.
func NewRound(snap Snapshot, placement Placement) *Round {
	r := &Round{
		snap:      snap,
		placement: placement,
		avail:     make(map[string]resources.Vector, len(snap.Nodes)),
		count:     make([]int, len(snap.Services)),
	}
	for _, n := range snap.Nodes {
		r.avail[n.ID] = n.Available
	}
	for i, s := range snap.Services {
		r.count[i] = len(s.Replicas)
	}
	return r
}

// Plan ends the round. It appends one merged VerticalScale per resized
// container that is not also being removed, after every horizontal action,
// and returns the plan.
func (r *Round) Plan() Plan {
	for _, id := range r.resizeOrder {
		if !r.removed[id] {
			r.plan.Actions = append(r.plan.Actions, VerticalScale{ContainerID: id, NewAlloc: r.resized[id]})
		}
	}
	return r.plan
}

// Count returns the tentative replica count of snap.Services[svc].
func (r *Round) Count(svc int) int { return r.count[svc] }

// Removed reports whether this round scales the container in.
func (r *Round) Removed(containerID string) bool { return r.removed[containerID] }

// Available returns the node's availability as planned so far.
func (r *Round) Available(nodeID string) resources.Vector { return r.avail[nodeID] }

// Credit returns v to the node's availability.
func (r *Round) Credit(nodeID string, v resources.Vector) {
	r.avail[nodeID] = r.avail[nodeID].Add(v)
}

// Debit takes v from the node's availability without a floor, for growth
// that never takes more than Available reports.
func (r *Round) Debit(nodeID string, v resources.Vector) {
	r.avail[nodeID] = r.avail[nodeID].Sub(v)
}

// Pick returns the ID of the node in snapshot order whose availability fits
// need and is best under the round's placement: the most available CPU for
// spread, the least for binpack, the first such node on a tie. A non-empty
// avoid skips nodes hosting that service. Empty string means nothing fits.
func (r *Round) Pick(need resources.Vector, avoid string) string {
	if avoid != "" {
		r.placed = r.placed[:0]
		for _, a := range r.plan.Actions {
			if out, ok := a.(ScaleOut); ok && out.Service == avoid {
				r.placed = append(r.placed, out.NodeID)
			}
		}
	}
	best := ""
	bestCPU := 0.0
	for _, n := range r.snap.Nodes {
		if avoid != "" && (n.HostsService(avoid) || slices.Contains(r.placed, n.ID)) {
			continue
		}
		a := r.avail[n.ID]
		if !need.FitsIn(a) {
			continue
		}
		better := best == "" ||
			(r.placement == PlacementBinPack && a.CPU < bestCPU) ||
			(r.placement != PlacementBinPack && a.CPU > bestCPU)
		if better {
			bestCPU = a.CPU
			best = n.ID
		}
	}
	return best
}

// ScaleOut starts a replica of snap.Services[svc] on the node with the given
// allocation, debiting the node.
func (r *Round) ScaleOut(svc int, nodeID string, alloc resources.Vector) {
	r.plan.Actions = append(r.plan.Actions, ScaleOut{Service: r.snap.Services[svc].Info.Name, NodeID: nodeID, Alloc: alloc})
	r.avail[nodeID] = r.avail[nodeID].Sub(alloc).ClampNonNegative()
	r.count[svc]++
}

// ScaleIn removes one of snap.Services[svc]'s replicas. It does not credit
// the replica's node; see Credit.
func (r *Round) ScaleIn(svc int, containerID string) {
	r.plan.Actions = append(r.plan.Actions, ScaleIn{ContainerID: containerID})
	if r.removed == nil {
		r.removed = make(map[string]bool)
	}
	r.removed[containerID] = true
	r.count[svc]--
}

// AddReplicas scales snap.Services[svc] out by up to n replicas at its
// initial allocation, without anti-affinity. It returns how many it placed,
// fewer than n when no node fits.
func (r *Round) AddReplicas(svc, n int) int {
	alloc := r.snap.Services[svc].Info.InitialAlloc
	placed := 0
	for ; placed < n; placed++ {
		nodeID := r.Pick(alloc, "")
		if nodeID == "" {
			break
		}
		r.ScaleOut(svc, nodeID, alloc)
	}
	return placed
}

// RemoveNewest scales snap.Services[svc] in by its n newest replicas: the
// oldest are the most established, so removing the newest minimises churn.
func (r *Round) RemoveNewest(svc, n int) {
	reps := r.snap.Services[svc].Replicas
	for i := 0; i < n && i < len(reps); i++ {
		r.ScaleIn(svc, reps[len(reps)-1-i].ContainerID)
	}
}

// Allocation returns the replica's allocation as resized so far this round.
func (r *Round) Allocation(rep ReplicaStats) resources.Vector {
	if a, ok := r.resized[rep.ContainerID]; ok {
		return a
	}
	return rep.Requested
}

// Resize sets the container's allocation for the rest of the round, so
// later phases build on it instead of the snapshot's stale value.
func (r *Round) Resize(containerID string, alloc resources.Vector) {
	if r.resized == nil {
		r.resized = make(map[string]resources.Vector)
	}
	if _, seen := r.resized[containerID]; !seen {
		r.resizeOrder = append(r.resizeOrder, containerID)
	}
	r.resized[containerID] = alloc
}

// Gate is the per-service horizontal rescale-interval throttle (paper: 3 s
// up, 50 s down): a service scales up at most once per up interval and down
// at most once per down interval. Vertical actions are exempt (§IV-B1).
// Unlike a Round, a Gate lives across decision rounds.
type Gate struct {
	up, down         time.Duration
	lastUp, lastDown map[string]time.Duration
}

// NewGate builds a gate with the given scale-up and scale-down intervals.
func NewGate(up, down time.Duration) *Gate {
	return &Gate{up: up, down: down,
		lastUp: make(map[string]time.Duration), lastDown: make(map[string]time.Duration)}
}

// CanUp reports whether the service may scale up at now.
func (g *Gate) CanUp(service string, now time.Duration) bool {
	last, seen := g.lastUp[service]
	return !seen || now-last >= g.up
}

// CanDown reports whether the service may scale down at now.
func (g *Gate) CanDown(service string, now time.Duration) bool {
	last, seen := g.lastDown[service]
	return !seen || now-last >= g.down
}

// MarkUp records a scale-up of the service at now.
func (g *Gate) MarkUp(service string, now time.Duration) { g.lastUp[service] = now }

// MarkDown records a scale-down of the service at now.
func (g *Gate) MarkDown(service string, now time.Duration) { g.lastDown[service] = now }
