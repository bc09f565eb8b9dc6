// Self-healing control plane: a heartbeat failure detector over the node
// managers, a desired-state reconciler that re-places replicas lost to dead
// nodes, and a checkpoint/restore path that lets the Monitor survive its own
// crashes without forgetting in-flight recovery work.
//
// The detector is driven by the same polls the Monitor already performs: a
// node whose stats query fails (machine gone, stats-drop fault, or a
// partition blackout) accrues consecutive misses; SuspectAfter misses make
// it suspect, DeadAfter make it dead. While a node is suspect its replicas
// are served from last-known data so the algorithm does not react before
// the detector rules. On death the reconciler excises the node's replicas,
// records them as lost, and enqueues capacity-aware re-placements through
// the retry queue with an anti-flap cooldown — a node that answers again
// before its replacements execute has them cancelled and its surviving
// replicas re-adopted; replicas whose replacements already ran are drained
// as stale.
package monitor

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/core"
	"hyscale/internal/obs"
	"hyscale/internal/resources"
)

// SelfHealing configures the failure detector, reconciler and checkpointing.
// The zero value disables all three, reproducing the legacy behaviour
// (node failures must be reported out-of-band via DetachNode).
type SelfHealing struct {
	// Enabled turns on the heartbeat failure detector and the desired-state
	// reconciler.
	Enabled bool `json:"enabled"`
	// SuspectAfter is the number of consecutive missed polls before a node
	// becomes suspect (default 2).
	SuspectAfter int `json:"suspectAfter,omitempty"`
	// DeadAfter is the number of consecutive missed polls before a suspect
	// node is declared dead and its replicas reconciled (default 4).
	DeadAfter int `json:"deadAfter,omitempty"`
	// Cooldown delays each lost replica's re-placement, so a node that
	// recovers promptly cancels its replacements instead of racing them —
	// the anti-flap guard (default 10s).
	Cooldown time.Duration `json:"cooldown,omitempty"`
	// Checkpoint enables periodic decision-state snapshots; after a monitor
	// crash (faults.KindMonitorCrash) the monitor restores from the last
	// checkpoint instead of cold-restarting.
	Checkpoint bool `json:"checkpoint,omitempty"`
	// CheckpointEvery spaces checkpoints; zero checkpoints every poll.
	CheckpointEvery time.Duration `json:"checkpointEvery,omitempty"`
}

// DefaultSelfHealing returns the default self-healing settings: suspect
// after 2 missed polls, dead after 4, a 10 s re-placement cooldown, and
// checkpointing every poll.
func DefaultSelfHealing() SelfHealing {
	return SelfHealing{
		Enabled:      true,
		SuspectAfter: 2,
		DeadAfter:    4,
		Cooldown:     10 * time.Second,
		Checkpoint:   true,
	}
}

// Validate rejects negative thresholds and spacings, which the detector
// would otherwise replace with its defaults; zero selects the default.
func (s SelfHealing) Validate() error {
	if s.SuspectAfter < 0 {
		return fmt.Errorf("monitor: selfHealing.suspectAfter must be >= 0, got %d", s.SuspectAfter)
	}
	if s.DeadAfter < 0 {
		return fmt.Errorf("monitor: selfHealing.deadAfter must be >= 0, got %d", s.DeadAfter)
	}
	if s.Cooldown < 0 {
		return fmt.Errorf("monitor: selfHealing.cooldown must be >= 0, got %v", s.Cooldown)
	}
	if s.CheckpointEvery < 0 {
		return fmt.Errorf("monitor: selfHealing.checkpointEvery must be >= 0, got %v", s.CheckpointEvery)
	}
	return nil
}

func (s SelfHealing) suspectAfter() int {
	if s.SuspectAfter > 0 {
		return s.SuspectAfter
	}
	return 2
}

func (s SelfHealing) deadAfter() int {
	d := s.DeadAfter
	if d <= 0 {
		d = 4
	}
	if d <= s.suspectAfter() {
		d = s.suspectAfter() + 1
	}
	return d
}

func (s SelfHealing) cooldown() time.Duration {
	if s.Cooldown > 0 {
		return s.Cooldown
	}
	return 10 * time.Second
}

// NodeHealth is a detector state.
type NodeHealth int

// Detector states: healthy → suspect → dead, back to healthy on contact.
const (
	NodeHealthy NodeHealth = iota
	NodeSuspect
	NodeDead
)

// String implements fmt.Stringer.
func (h NodeHealth) String() string {
	switch h {
	case NodeSuspect:
		return "suspect"
	case NodeDead:
		return "dead"
	default:
		return "healthy"
	}
}

// nodeState is the detector's per-node record.
type nodeState struct {
	missed int
	health NodeHealth
}

// miss records a missed poll under s's thresholds and reports whether it
// made the node suspect or dead. A dead node stays as it is.
func (st *nodeState) miss(s SelfHealing) (suspect, dead bool) {
	if st.health == NodeDead {
		return false, false // already ruled; nothing further to detect
	}
	st.missed++
	if st.health == NodeHealthy && st.missed >= s.suspectAfter() {
		st.health, suspect = NodeSuspect, true
	}
	if st.health == NodeSuspect && st.missed >= s.deadAfter() {
		st.health, dead = NodeDead, true
	}
	return suspect, dead
}

// answer resets the record after an answered poll and returns the health
// it had.
func (st *nodeState) answer() NodeHealth {
	was := st.health
	st.missed, st.health = 0, NodeHealthy
	return was
}

// lostReplica is one replica excised when its node was declared dead,
// awaiting either replacement (reconciler scale-out) or re-adoption (node
// recovered before the replacement ran).
type lostReplica struct {
	ord   int // the service's registration ordinal
	c     *container.Container
	node  *cluster.Node
	alloc resources.Vector
	// replaced marks that a reconciler scale-out for this replica has
	// applied; if the node later recovers, the surviving original is
	// drained as stale instead of re-adopted.
	replaced bool
}

// RecoveryCounts tallies the self-healing layer's activity.
type RecoveryCounts struct {
	// Suspected / DeclaredDead / Recovered count detector transitions.
	Suspected    uint64
	DeclaredDead uint64
	Recovered    uint64
	// ReplicasLost counts replicas excised from dead nodes; Replaced counts
	// reconciler re-placements that applied; Readopted counts survivors
	// taken back after a recovery; StaleDrained counts survivors drained
	// because their replacement already ran; ReconcileCancelled counts
	// queued re-placements cancelled by a recovery (the anti-flap path).
	ReplicasLost       uint64
	Replaced           uint64
	Readopted          uint64
	StaleDrained       uint64
	ReconcileCancelled uint64
	// CheckpointRestores / ColdRestarts count how monitor crashes ended.
	CheckpointRestores uint64
	ColdRestarts       uint64
}

// NodeCondition is one node's detector state, for /metrics and debugging.
type NodeCondition struct {
	Node        string
	Health      NodeHealth
	MissedPolls int
}

// Recovery returns the cumulative self-healing counters.
func (m *Monitor) Recovery() RecoveryCounts { return m.recovery }

// NodeConditions returns the detector state of every attached node in
// attachment order. Nodes are healthy until the detector (selfHeal.Enabled)
// observes a missed poll.
func (m *Monitor) NodeConditions() []NodeCondition {
	out := make([]NodeCondition, 0, len(m.nodes))
	for i := range m.nodes {
		e := &m.nodes[i]
		out = append(out, NodeCondition{Node: e.nm.NodeID(), Health: e.det.health, MissedPolls: e.det.missed})
	}
	return out
}

// event journals one self-healing event. No-op unless journal is set.
func (m *Monitor) event(now time.Duration, kind obs.EventKind, node, service, cid, detail string) {
	if m.journal == nil {
		return
	}
	m.journal.Event(obs.Event{At: now, Kind: kind, Node: node, Service: service, Container: cid, Detail: detail})
}

// noteMissedPoll advances e's failure detector after a failed stats query.
func (m *Monitor) noteMissedPoll(e *nodeEntry, now time.Duration) {
	if !m.selfHeal.Enabled {
		return
	}
	nodeID := e.nm.NodeID()
	if m.names != nil {
		m.names.miss(nodeID, m.selfHeal)
	}
	suspect, dead := e.det.miss(m.selfHeal)
	if suspect {
		m.recovery.Suspected++
		m.event(now, obs.EventNodeSuspect, nodeID, "", "", fmt.Sprintf("%d missed polls", e.det.missed))
	}
	if dead {
		m.declareDead(nodeID, now)
	}
}

// notePollOK resets e's detector after a successful stats query, recovering
// a suspect or dead node.
func (m *Monitor) notePollOK(e *nodeEntry, now time.Duration) {
	if !m.selfHeal.Enabled {
		return
	}
	if e.det.missed == 0 && e.det.health == NodeHealthy {
		return
	}
	nodeID := e.nm.NodeID()
	if m.names != nil {
		m.names.answer(nodeID)
	}
	was := e.det.answer()
	if was == NodeHealthy {
		return
	}
	m.recovery.Recovered++
	m.event(now, obs.EventNodeRecovered, nodeID, "", "", "was "+was.String())
	if was == NodeDead {
		m.reconcileRecovery(nodeID, now)
	}
}

// nodeClean reports whether nodeID's detector record is clean: no missed
// poll outstanding, ruled healthy.
func (m *Monitor) nodeClean(nodeID string) bool {
	e := m.entry(nodeID)
	return e == nil || (e.det.missed == 0 && e.det.health == NodeHealthy)
}

// nodeDead reports whether the detector has ruled nodeID dead.
func (m *Monitor) nodeDead(nodeID string) bool {
	e := m.entry(nodeID)
	return e != nil && e.det.health == NodeDead
}

// inLimbo reports whether a replica that vanished from host should still
// be attributed to it: the host is attached and unreachable but not yet
// ruled dead. During this grace the replica stays in the snapshot (served
// from cached stats) so the algorithm does not double-provision before the
// detector decides.
func (m *Monitor) inLimbo(host string) bool {
	if !m.selfHeal.Enabled {
		return false
	}
	e := m.entry(host)
	return e != nil && e.det.missed > 0 && e.det.health != NodeDead
}

// lastKnownReplica synthesizes a limbo replica's stats from the node's
// cached report, falling back to the service's initial envelope.
func (m *Monitor) lastKnownReplica(id, home string, st *serviceState) core.ReplicaStats {
	rs := core.ReplicaStats{
		ContainerID: id,
		NodeID:      home,
		Requested:   st.info.InitialAlloc,
		Routable:    true,
	}
	if e := m.entry(home); e != nil && e.rep.ok {
		for _, cs := range e.rep.rep.Containers {
			if cs.ID == id {
				rs.Requested = cs.Requested
				rs.Usage = cs.Usage
				rs.Routable = cs.Routable
				rs.Inflight = cs.Inflight
				break
			}
		}
	}
	return rs
}

// declareDead excises every replica homed on the dead node, records each as
// lost, and enqueues a capacity-aware re-placement through the retry queue
// with the anti-flap cooldown. A machine that is also gone from the cluster
// entirely (RemoveNode) is detached by the Snapshot sweep afterwards — it
// can never answer again under this identity.
func (m *Monitor) declareDead(nodeID string, now time.Duration) {
	m.recovery.DeclaredDead++
	m.event(now, obs.EventNodeDead, nodeID, "", "", "")

	notBefore := now + m.selfHeal.cooldown()
	for _, st := range m.services {
		kept := 0
		for k, c := range st.replicas {
			node := st.hosts[k]
			if node.ID() != nodeID {
				st.replicas[kept], st.hosts[kept] = c, node
				kept++
				continue
			}
			alloc := st.info.InitialAlloc
			if c.State != container.StateRemoved {
				alloc = c.Alloc
			} else if e := m.entry(nodeID); e != nil && e.rep.ok {
				for _, cs := range e.rep.rep.Containers {
					if cs.ID == c.ID {
						alloc = cs.Requested
						break
					}
				}
			}
			m.lost = append(m.lost, lostReplica{
				ord: st.info.Ord, c: c, node: node, alloc: alloc,
			})
			m.recovery.ReplicasLost++
			// NodeID is left empty: the placement is resolved against live
			// capacity when the action finally executes, not now.
			m.retries = append(m.retries, pendingAction{
				action:        core.StartOn(st.info.Ord, "", alloc),
				notBefore:     notBefore,
				reconcileNode: nodeID,
				lost:          c,
			})
			m.event(now, obs.EventReconcileEnqueue, nodeID, st.spec.Name, c.ID, "replace after "+m.selfHeal.cooldown().String())
		}
		st.truncate(kept)
	}
}

// reconcileRecovery handles a dead node answering again (a partition that
// healed): queued re-placements for it are cancelled, survivors whose
// replacement never ran are re-adopted, and survivors whose replacement
// already ran are drained as stale.
func (m *Monitor) reconcileRecovery(nodeID string, now time.Duration) {
	kept := m.retries[:0]
	for _, p := range m.retries {
		if p.reconcileNode != nodeID {
			kept = append(kept, p)
			continue
		}
		m.recovery.ReconcileCancelled++
		if p.action.Kind == core.ScaleOut {
			m.event(now, obs.EventReconcileCancel, nodeID, m.serviceName(int(p.action.Svc)-1), p.lost.ID, "node recovered")
		}
	}
	for i := len(kept); i < len(m.retries); i++ {
		m.retries[i] = pendingAction{}
	}
	m.retries = kept

	m.settleLost(now, func(l lostReplica) bool { return l.node.ID() == nodeID })
}

// settleLost settles the lost-ledger entries match selects against what
// physically survived the outage on this arbiter's nodes: vanished replicas
// are forgotten, survivors whose replacement already ran are drained as
// stale, and the rest are re-adopted, any replacement still queued for them
// cancelled. A recovered node's own replacements are cancelled before this
// runs; a re-homed service's may still be queued, and its entries may name
// another zone's nodes, which count as vanished here.
func (m *Monitor) settleLost(now time.Duration, match func(lostReplica) bool) {
	remaining := m.lost[:0]
	for _, l := range m.lost {
		if !match(l) {
			remaining = append(remaining, l)
			continue
		}
		alive := l.c.State != container.StateRemoved && m.cluster.Node(l.node.ID()) == l.node
		switch {
		case !alive:
			// Nothing survived the outage; the replacement (ran or
			// cancelled) is all there is.
		case l.replaced:
			m.removeFrom(l.node, l.c)
			m.recovery.StaleDrained++
			m.event(now, obs.EventStaleDrained, l.node.ID(), m.serviceName(l.ord), l.c.ID, "")
		default:
			if st := m.stateOf(l.ord); st != nil {
				st.add(l.c, l.node)
				m.recovery.Readopted++
				m.event(now, obs.EventReadopted, l.node.ID(), st.spec.Name, l.c.ID, "")
				m.cancelPendingFor(l.c, now)
			}
		}
	}
	m.lost = remaining
}

// cancelPendingFor drops the queued replacement for one re-adopted replica.
func (m *Monitor) cancelPendingFor(lost *container.Container, now time.Duration) {
	for i, pa := range m.retries {
		if pa.lost != lost {
			continue
		}
		m.recovery.ReconcileCancelled++
		if pa.action.Kind == core.ScaleOut {
			m.event(now, obs.EventReconcileCancel, pa.reconcileNode, m.serviceName(int(pa.action.Svc)-1), lost.ID, "replica readopted")
		}
		m.retries = append(m.retries[:i], m.retries[i+1:]...)
		return
	}
}

// finishLost marks a lost replica's replacement as done. When the dead node
// is gone for good (detached), the record is dropped — there is no recovery
// left to reconcile against.
func (m *Monitor) finishLost(lost *container.Container) {
	for i := range m.lost {
		if m.lost[i].c != lost {
			continue
		}
		if m.entry(m.lost[i].node.ID()) == nil {
			m.lost = append(m.lost[:i], m.lost[i+1:]...)
		} else {
			m.lost[i].replaced = true
		}
		return
	}
}

// --- Checkpoint / restore ---------------------------------------------------

// checkpoint is a deep copy of the Monitor's decision state: the retry
// queue (re-placements and their cooldown deadlines included), the failure
// detector, the lost-replica ledger, the desired replica sets, and the
// last-known node reports.
type checkpoint struct {
	at      time.Duration
	retries []pendingAction
	// nodes holds each attached node's entry in attachment order: its
	// report and its detector record. The host caches stay unset.
	nodes []nodeEntry
	lost  []lostReplica
	// replicas holds each service's replica lists, in m.services order.
	replicas []serviceReplicas
}

// serviceReplicas is one service's replica lists in a checkpoint, keyed by
// the service's registration ordinal.
type serviceReplicas struct {
	ord      int
	replicas []*container.Container
	hosts    []*cluster.Node
}

// checkpointNow snapshots the Monitor's decision state unconditionally. It
// overwrites the monitor's one retained checkpoint in place — restore copies
// everything out of it, so nothing else holds its buffers — and each node's
// report and each service's replica lists keep their buffers from one
// checkpoint to the next. Node reports are deep-copied: the live entries
// reuse their Containers buffers every poll, and a checkpoint must not see
// those later overwrites.
func (m *Monitor) checkpointNow(now time.Duration) {
	cp := m.checkpointBuf
	if cp == nil {
		cp = &checkpoint{}
		m.checkpointBuf = cp
	}
	cp.at = now
	cp.retries = append(cp.retries[:0], m.retries...)
	cp.lost = append(cp.lost[:0], m.lost...)
	cp.nodes = slices.Grow(cp.nodes[:0], len(m.nodes))[:len(m.nodes)]
	for i := range m.nodes {
		e, f := &m.nodes[i], &cp.nodes[i]
		f.nm, f.det = e.nm, e.det
		f.rep.at, f.rep.ok = e.rep.at, e.rep.ok
		r, w := &e.rep.rep, &f.rep.rep
		w.NodeID, w.Capacity, w.Available = r.NodeID, r.Capacity, r.Available
		w.Containers = append(w.Containers[:0], r.Containers...)
	}
	if m.names != nil {
		m.names.checkpoint()
	}
	cp.replicas = slices.Grow(cp.replicas[:0], len(m.services))[:len(m.services)]
	for i, st := range m.services {
		e := &cp.replicas[i]
		e.ord = st.info.Ord
		e.replicas = append(e.replicas[:0], st.replicas...)
		e.hosts = append(e.hosts[:0], st.hosts...)
	}
	m.lastCheckpoint = cp
	m.lastCheckpointAt = now
}

// MaybeCheckpoint snapshots decision state when checkpointing is enabled
// and CheckpointEvery has elapsed since the last snapshot (zero spacing
// checkpoints every call). The platform calls this after each poll.
func (m *Monitor) MaybeCheckpoint(now time.Duration) {
	if !m.selfHeal.Checkpoint {
		return
	}
	if m.lastCheckpoint != nil && m.selfHeal.CheckpointEvery > 0 &&
		now-m.lastCheckpointAt < m.selfHeal.CheckpointEvery {
		return
	}
	m.checkpointNow(now)
}

// Restart brings the Monitor back after a crash window: from the last
// checkpoint when checkpointing is on and one exists, otherwise cold — the
// retry queue, detector state and lost-replica ledger are gone, and the
// desired replica sets are rediscovered from whatever containers still run.
func (m *Monitor) Restart(now time.Duration) {
	if m.selfHeal.Checkpoint && m.lastCheckpoint != nil {
		m.restore(m.lastCheckpoint, now)
		return
	}
	m.coldRestart(now)
}

func (m *Monitor) restore(cp *checkpoint, now time.Duration) {
	m.retries = append([]pendingAction(nil), cp.retries...)
	for i := range m.nodes {
		e := &m.nodes[i]
		e.rep.hostsOK = false // rebuilt on the next snapshot
		f := cp.node(i, e.nm.NodeID())
		if f == nil {
			// Attached since the checkpoint: no report, a clean record.
			e.rep.ok, e.det = false, nodeState{}
			continue
		}
		// Copy out of the checkpoint so post-restore polls reporting into
		// the live entry never mutate the frozen state.
		e.rep.rep, e.rep.at, e.rep.ok = f.rep.rep, f.rep.at, f.rep.ok
		e.rep.rep.Containers = slices.Clone(f.rep.rep.Containers)
		e.det = f.det
	}
	if m.names != nil {
		m.names.restore()
	}
	m.lost = append([]lostReplica(nil), cp.lost...)
	// Every topology change that moves a service voids the checkpoint, so
	// each entry's service is still here; one registered since has none.
	for _, st := range m.services {
		st.replicas, st.hosts = nil, nil
	}
	for _, e := range cp.replicas {
		st := m.stateOf(e.ord)
		st.replicas = append([]*container.Container(nil), e.replicas...)
		st.hosts = append([]*cluster.Node(nil), e.hosts...)
	}
	m.recovery.CheckpointRestores++
	m.event(now, obs.EventCheckpointRestore, "", "", "", fmt.Sprintf("checkpoint from %v", cp.at))
}

// node returns the checkpointed entry of the node attached under nodeID, nil
// when none was attached then. Entries stay in attachment order, so while
// the node list is unchanged the entry sits at the node's live index i; a
// node list changed since the checkpoint is matched by ID.
func (cp *checkpoint) node(i int, nodeID string) *nodeEntry {
	if i < len(cp.nodes) && cp.nodes[i].nm.NodeID() == nodeID {
		return &cp.nodes[i]
	}
	for k := range cp.nodes {
		if cp.nodes[k].nm.NodeID() == nodeID {
			return &cp.nodes[k]
		}
	}
	return nil
}

// coldRestart models a monitor process that restarts with no durable state:
// it re-discovers replicas from the cluster (docker ps) but loses the retry
// queue, the detector's evidence, the last-known node reports and the
// lost-replica ledger — re-placements that had not run yet simply never
// happen.
func (m *Monitor) coldRestart(now time.Duration) {
	m.retries = nil
	for i := range m.nodes {
		e := &m.nodes[i]
		e.rep.ok, e.rep.hostsOK, e.det = false, false, nodeState{}
	}
	if m.names != nil {
		m.names.clear()
	}
	m.lost = nil
	for _, st := range m.services {
		// Rediscovered replicas are ordered by their creation index
		// ("<service>-<idx>"), so a cold restart yields the same replica
		// order on every run.
		cs := m.cluster.ReplicasOf(st.spec.Name)
		slices.SortStableFunc(cs, func(a, b *container.Container) int {
			return cmp.Compare(creationIndex(a.ID), creationIndex(b.ID))
		})
		st.replicas, st.hosts = cs, make([]*cluster.Node, len(cs))
		for k, c := range cs {
			st.hosts[k] = m.cluster.Node(c.NodeID)
		}
	}
	m.recovery.ColdRestarts++
	m.event(now, obs.EventColdRestart, "", "", "", "")
}

// creationIndex parses the index of a replica ID "<service>-<idx>", 0 when
// it has none.
func creationIndex(id string) int {
	if i := strings.LastIndex(id, "-"); i >= 0 {
		if n, err := strconv.Atoi(id[i+1:]); err == nil {
			return n
		}
	}
	return 0
}
