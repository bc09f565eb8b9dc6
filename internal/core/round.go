package core

import (
	"slices"
	"time"

	"hyscale/internal/resources"
)

// Round is one decision round's planning state, shared by every algorithm:
// the plan under construction, the node-availability ledger, tentative
// replica counts, the replicas scheduled for removal and pending vertical
// allocations. Everything is indexed by ordinal: a node by its ledger slot
// (ReplicaStats.Slot, or its index in Snapshot.Nodes), a replica by service
// index and position, (svc, j). An algorithm keeps one Round, resets it at
// the start of each Decide and ends it with Plan; its slices are reused from
// round to round, so a steady-state round allocates nothing. DESIGN.md §5
// states the ledger's rules; the asymmetry that matters is that ScaleIn
// never credits a node, so only an algorithm that calls Credit (HyScale)
// lets later services reuse capacity freed within the round.
type Round struct {
	snap      Snapshot
	placement Placement
	plan      []Action
	// avail is the ledger, indexed by slot.
	avail []resources.Vector
	count []int
	// base[svc] is the flat ordinal of snap.Services[svc].Replicas[0]; the
	// per-replica slices below are indexed by flat ordinal.
	base    []int
	removed []bool
	resized []bool
	alloc   []resources.Vector
	// resizeOrder lists resized replicas, as (svc, j), in first-resize
	// order, the order Plan emits their VerticalScale actions in.
	resizeOrder [][2]int
	// placed is reused by every Pick call: the nodes this round has
	// already scaled the avoided service out onto.
	placed []int
}

// Reset starts a round over snap, dropping the previous round's state.
// placement selects the node-choice heuristic Pick applies. The plan the
// previous round returned is overwritten.
func (r *Round) Reset(snap Snapshot, placement Placement) {
	if snap.Slots < len(snap.Nodes) {
		panic("core: snapshot without ledger slots; fill them with IndexHosts")
	}
	r.snap = snap
	r.placement = placement
	r.plan = r.plan[:0]
	r.placed = r.placed[:0]
	r.resizeOrder = r.resizeOrder[:0]
	r.avail = resize(r.avail, snap.Slots)
	for i, n := range snap.Nodes {
		r.avail[i] = n.Available
	}
	clear(r.avail[len(snap.Nodes):])
	r.count = resize(r.count, len(snap.Services))
	r.base = resize(r.base, len(snap.Services))
	flat := 0
	for i, s := range snap.Services {
		r.count[i] = len(s.Replicas)
		r.base[i] = flat
		flat += len(s.Replicas)
	}
	r.removed = resize(r.removed, flat)
	clear(r.removed)
	r.resized = resize(r.resized, flat)
	clear(r.resized)
	r.alloc = resize(r.alloc, flat)
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Plan ends the round. It appends one merged VerticalScale per resized
// replica that is not also being removed, after every horizontal action,
// and returns the plan. The plan aliases the round's storage: it is valid
// until the next Reset.
func (r *Round) Plan() Plan {
	for _, sj := range r.resizeOrder {
		svc, j := sj[0], sj[1]
		if k := r.base[svc] + j; !r.removed[k] {
			a := Resize(r.snap.Services[svc].Replicas[j].ContainerID, r.alloc[k])
			a.Svc, a.Replica = int32(r.snap.Services[svc].Info.Ord+1), int32(k+1)
			r.plan = append(r.plan, a)
		}
	}
	return Plan{Actions: r.plan, Epoch: r.snap.Epoch}
}

// Count returns the tentative replica count of snap.Services[svc].
func (r *Round) Count(svc int) int { return r.count[svc] }

// Removed reports whether this round scales replica j of
// snap.Services[svc] in.
func (r *Round) Removed(svc, j int) bool { return r.removed[r.base[svc]+j] }

// Available returns the availability of ledger slot as planned so far.
func (r *Round) Available(slot int) resources.Vector { return r.avail[slot] }

// Credit returns v to ledger slot's availability.
func (r *Round) Credit(slot int, v resources.Vector) {
	r.avail[slot] = r.avail[slot].Add(v)
}

// Debit takes v from ledger slot's availability without a floor, for
// growth that never takes more than Available reports.
func (r *Round) Debit(slot int, v resources.Vector) {
	r.avail[slot] = r.avail[slot].Sub(v)
}

// Pick returns the index in snap.Nodes of the node whose availability fits
// need and is best under the round's placement: the most available CPU for
// spread, the least for binpack, the first such node on a tie. avoid, when
// not -1, is the snap.Services index of a service whose hosts are skipped:
// the nodes listing it in Hosts and those this round scaled it out onto. -1
// means nothing fits.
func (r *Round) Pick(need resources.Vector, avoid int) int {
	var name string
	if avoid >= 0 {
		info := r.snap.Services[avoid].Info
		name = info.Name
		r.placed = r.placed[:0]
		for _, a := range r.plan {
			if a.Kind == ScaleOut && a.Svc == int32(info.Ord+1) {
				r.placed = append(r.placed, int(a.Node-1))
			}
		}
	}
	best := -1
	bestCPU := 0.0
	for i, n := range r.snap.Nodes {
		if avoid >= 0 && (slices.Contains(n.Hosts, name) || slices.Contains(r.placed, i)) {
			continue
		}
		a := r.avail[i]
		if !need.FitsIn(a) {
			continue
		}
		better := best < 0 ||
			(r.placement == PlacementBinPack && a.CPU < bestCPU) ||
			(r.placement != PlacementBinPack && a.CPU > bestCPU)
		if better {
			bestCPU = a.CPU
			best = i
		}
	}
	return best
}

// ScaleOut starts a replica of snap.Services[svc] on snap.Nodes[node] with
// the given allocation, debiting the node.
func (r *Round) ScaleOut(svc, node int, alloc resources.Vector) {
	a := StartOn(r.snap.Services[svc].Info.Ord, r.snap.Nodes[node].ID, alloc)
	a.Node = int32(node + 1)
	r.plan = append(r.plan, a)
	r.avail[node] = r.avail[node].Sub(alloc).ClampNonNegative()
	r.count[svc]++
}

// ScaleIn removes replica j of snap.Services[svc]. It does not credit the
// replica's node; see Credit.
func (r *Round) ScaleIn(svc, j int) {
	k := r.base[svc] + j
	a := Remove(r.snap.Services[svc].Replicas[j].ContainerID)
	a.Svc, a.Replica = int32(r.snap.Services[svc].Info.Ord+1), int32(k+1)
	r.plan = append(r.plan, a)
	r.removed[k] = true
	r.count[svc]--
}

// AddReplicas scales snap.Services[svc] out by up to n replicas at its
// initial allocation, without anti-affinity. It returns how many it placed,
// fewer than n when no node fits.
func (r *Round) AddReplicas(svc, n int) int {
	alloc := r.snap.Services[svc].Info.InitialAlloc
	placed := 0
	for ; placed < n; placed++ {
		node := r.Pick(alloc, -1)
		if node < 0 {
			break
		}
		r.ScaleOut(svc, node, alloc)
	}
	return placed
}

// RemoveNewest scales snap.Services[svc] in by its n newest replicas: the
// oldest are the most established, so removing the newest minimises churn.
func (r *Round) RemoveNewest(svc, n int) {
	reps := r.snap.Services[svc].Replicas
	for i := 0; i < n && i < len(reps); i++ {
		r.ScaleIn(svc, len(reps)-1-i)
	}
}

// Allocation returns the allocation of replica j of snap.Services[svc] as
// resized so far this round.
func (r *Round) Allocation(svc, j int) resources.Vector {
	if k := r.base[svc] + j; r.resized[k] {
		return r.alloc[k]
	}
	return r.snap.Services[svc].Replicas[j].Requested
}

// Resize sets the allocation of replica j of snap.Services[svc] for the rest
// of the round, so later phases build on it instead of the snapshot's stale
// value.
func (r *Round) Resize(svc, j int, alloc resources.Vector) {
	k := r.base[svc] + j
	if !r.resized[k] {
		r.resized[k] = true
		r.resizeOrder = append(r.resizeOrder, [2]int{svc, j})
	}
	r.alloc[k] = alloc
}

// Gate is the per-service horizontal rescale-interval throttle (paper: 3 s
// up, 50 s down): a service scales up at most once per up interval and down
// at most once per down interval. Vertical actions are exempt (§IV-B1).
// Unlike a Round, a Gate lives across decision rounds. It keys services by
// ServiceInfo.Ord.
type Gate struct {
	up, down time.Duration
	// next[ord] holds the earliest times the service may scale up and down
	// again; zero, which every snapshot time reaches, until it first does.
	next [][2]time.Duration
}

// NewGate builds a gate with the given scale-up and scale-down intervals.
func NewGate(up, down time.Duration) *Gate {
	return &Gate{up: up, down: down}
}

// CanUp reports whether service ord may scale up at now.
func (g *Gate) CanUp(ord int, now time.Duration) bool {
	return ord >= len(g.next) || now >= g.next[ord][0]
}

// CanDown reports whether service ord may scale down at now.
func (g *Gate) CanDown(ord int, now time.Duration) bool {
	return ord >= len(g.next) || now >= g.next[ord][1]
}

// MarkUp records a scale-up of service ord at now.
func (g *Gate) MarkUp(ord int, now time.Duration) { g.at(ord)[0] = now + g.up }

// MarkDown records a scale-down of service ord at now.
func (g *Gate) MarkDown(ord int, now time.Duration) { g.at(ord)[1] = now + g.down }

// at returns service ord's entry, growing the table to hold it.
func (g *Gate) at(ord int) *[2]time.Duration {
	if ord >= len(g.next) {
		g.next = append(g.next, make([][2]time.Duration, ord+1-len(g.next))...)
	}
	return &g.next[ord]
}
