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
	"slices"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/resources"
)

// ContainerStats is the per-container usage aggregate an NM reports to the
// Monitor.
type ContainerStats struct {
	ID      string
	Service string
	// Slot is the container's Container.Slot at report time. A cached
	// report can outlive the container, and the slot may then be reissued.
	Slot int
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

// Node returns the managed node.
func (m *Manager) Node() *cluster.Node { return m.node }

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

// Report aggregates the samples since the previous report into *rep and
// resets the window. Containers that produced no samples yet (e.g. still
// starting) report zero usage. A stats query whose answer never reaches the
// Monitor calls no Report, so it leaves the window intact: the usage
// accumulated during the outage lands in the next delivered Report —
// nothing is lost, only delayed.
//
// The container stats overwrite rep.Containers' backing array, grown as
// needed, so a caller that keeps each node's report reuses its buffer and a
// steady-state report allocates nothing.
func (m *Manager) Report(rep *Report) {
	m.sync()
	rep.NodeID = m.node.ID()
	rep.Capacity = m.node.Capacity()
	rep.Available = m.node.Available()
	buf := rep.Containers[:0]
	for i := range m.slots {
		s := &m.slots[i]
		c := s.c
		var usage resources.Vector
		if s.count > 0 {
			usage = s.sum.Scale(1 / float64(s.count))
		}
		buf = append(buf, ContainerStats{
			ID:        c.ID,
			Service:   c.Service,
			Slot:      c.Slot,
			Requested: c.Alloc,
			Usage:     usage,
			Routable:  c.Routable(),
			Inflight:  c.Inflight(),
		})
		s.sum, s.count = resources.Vector{}, 0
	}
	rep.Containers = buf
}

// ApplyVertical executes a `docker update` on c, which must be hosted on
// the managed node. The caller has already resolved c, so the check is a
// scan of the node's few containers, not a lookup by name.
func (m *Manager) ApplyVertical(c *container.Container, alloc resources.Vector) error {
	if !slices.Contains(m.node.Containers(), c) {
		return fmt.Errorf("nodemanager %s: unknown container %q", m.node.ID(), c.ID)
	}
	return c.Update(alloc)
}
