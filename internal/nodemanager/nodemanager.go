// Package nodemanager implements the NODE MANAGER (NM) of the paper's
// platform (§V-B): one per machine, it polls `docker stats` for every hosted
// container, aggregates usage between Monitor queries, and executes the
// vertical scaling commands (`docker update`) the Monitor sends down. NMs
// deliberately make no scaling decisions of their own — the paper explains
// that locally-optimal NM decisions oscillate against the Monitor's global
// ones (§V-B).
package nodemanager

import (
	"fmt"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/resources"
)

// ContainerStats is the per-container usage aggregate an NM reports to the
// Monitor.
type ContainerStats struct {
	ID      string
	Service string
	// Requested is the container's current allocation.
	Requested resources.Vector
	// Usage is the mean measured usage since the previous report.
	Usage resources.Vector
	// Routable reports whether the container is Running.
	Routable bool
	// Inflight is the number of requests resident in the container (queued
	// plus executing) at report time — the queue-depth signal.
	Inflight int
}

// Report is one NM's answer to a Monitor stats query.
type Report struct {
	NodeID     string
	Capacity   resources.Vector
	Available  resources.Vector
	Containers []ContainerStats
}

// Manager is the node-local agent.
type Manager struct {
	node *cluster.Node

	// slots accumulates per-container usage sums and counts between reports,
	// one slot per container, aligned index for index with node.Containers().
	// The alignment is re-established only when node.Version() moves (see
	// sync), so a steady-state Sample or Report does no hashing. spare is the
	// other half of the double buffer a resync builds into.
	slots   []slot
	spare   []slot
	slotVer uint64

	// containers is the reusable backing array for Report's stats slice —
	// cleared, not reallocated, each report, so steady-state polls allocate
	// nothing. Returned Reports alias it and are valid until the next Report
	// call; callers that cache must copy (see monitor.cachedReport).
	containers []ContainerStats

	missedQueries uint64
}

// slot is one container's sampling window: the sum and count of the usage
// samples taken since the last Report.
type slot struct {
	c     *container.Container
	sum   resources.Vector
	count int
}

// New attaches a manager to its node. The sampling window starts empty.
func New(node *cluster.Node) *Manager { return &Manager{node: node} }

// sync realigns the slots with the node's container list if a placement or
// removal moved node.Version() since the last call. (A zero slotVer matches
// only a node that never held a container, so a new manager's empty slots
// start aligned.) Each surviving container keeps its partial window; new
// containers start empty and removed ones drop out. Containers keep their
// relative order on a node (placements append, removals splice), so the
// search for a container's old slot resumes after the previous match and
// the whole resync is linear.
func (m *Manager) sync() {
	if m.node.Version() == m.slotVer {
		return
	}
	m.slotVer = m.node.Version()
	old := m.slots
	next := m.spare[:0]
	j := 0
	for _, c := range m.node.Containers() {
		s := slot{c: c}
		for k := j; k < len(old); k++ {
			if old[k].c == c {
				s, j = old[k], k+1
				break
			}
		}
		next = append(next, s)
	}
	clear(old)
	m.spare = old[:0]
	m.slots = next
}

// NodeID returns the managed node's ID.
func (m *Manager) NodeID() string { return m.node.ID() }

// Occupied reports whether the managed node hosts any container. A manager
// of an empty node has nothing to Sample; its stale slots, if any, drop out
// at the next sync.
func (m *Manager) Occupied() bool { return len(m.node.Containers()) > 0 }

// Sample records each hosted container's latest usage (what one `docker
// stats` poll would observe). Call once per physics tick.
func (m *Manager) Sample() {
	m.sync()
	for i := range m.slots {
		s := &m.slots[i]
		if s.c.State != container.StateRunning {
			continue
		}
		u := s.c.LastUsage()
		s.sum = s.sum.Add(resources.Vector{CPU: u.CPU, MemMB: u.MemMB, NetMbps: u.NetMbps})
		s.count++
	}
}

// Report aggregates the samples since the previous report and resets the
// window. Containers that produced no samples yet (e.g. still starting)
// report zero usage.
//
// The returned Report's Containers slice is reused across calls: it is valid
// until the next Report on this manager, and callers that keep it longer must
// copy it.
func (m *Manager) Report() Report {
	m.sync()
	rep := Report{
		NodeID:    m.node.ID(),
		Capacity:  m.node.Capacity(),
		Available: m.node.Available(),
	}
	m.containers = m.containers[:0]
	for i := range m.slots {
		s := &m.slots[i]
		c := s.c
		var usage resources.Vector
		if s.count > 0 {
			usage = s.sum.Scale(1 / float64(s.count))
		}
		m.containers = append(m.containers, ContainerStats{
			ID:        c.ID,
			Service:   c.Service,
			Requested: c.Alloc,
			Usage:     usage,
			Routable:  c.Routable(),
			Inflight:  c.Inflight(),
		})
		s.sum, s.count = resources.Vector{}, 0
	}
	rep.Containers = m.containers
	return rep
}

// NoteMissedQuery records a stats query whose answer never reached the
// Monitor. The sampling window is left intact, so the usage accumulated
// during the outage lands in the next successful Report — nothing is lost,
// only delayed.
func (m *Manager) NoteMissedQuery() { m.missedQueries++ }

// MissedQueries returns how many stats queries were dropped in transit.
func (m *Manager) MissedQueries() uint64 { return m.missedQueries }

// ApplyVertical executes a `docker update` on a hosted container.
func (m *Manager) ApplyVertical(containerID string, alloc resources.Vector) error {
	c := m.node.Container(containerID)
	if c == nil {
		return fmt.Errorf("nodemanager %s: unknown container %q", m.node.ID(), containerID)
	}
	return c.Update(alloc)
}

// Liveness reports the number of live (non-removed) containers; the paper's
// NMs check microservice liveness for the Monitor.
func (m *Manager) Liveness() int {
	n := 0
	for _, c := range m.node.Containers() {
		if c.State != container.StateRemoved {
			n++
		}
	}
	return n
}
