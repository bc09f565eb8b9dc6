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
	"fmt"
	"strconv"
	"strings"
	"time"

	"hyscale/internal/container"
	"hyscale/internal/core"
	"hyscale/internal/nodemanager"
	"hyscale/internal/obs"
	"hyscale/internal/resources"
)

// SelfHealing configures the failure detector, reconciler and checkpointing.
// The zero value disables all three, reproducing the legacy behaviour
// (node failures must be reported out-of-band via DetachNode).
type SelfHealing struct {
	// Enabled turns on the heartbeat failure detector and the desired-state
	// reconciler.
	Enabled bool
	// SuspectAfter is the number of consecutive missed polls before a node
	// becomes suspect (default 2).
	SuspectAfter int
	// DeadAfter is the number of consecutive missed polls before a suspect
	// node is declared dead and its replicas reconciled (default 4).
	DeadAfter int
	// Cooldown delays each lost replica's re-placement, so a node that
	// recovers promptly cancels its replacements instead of racing them —
	// the anti-flap guard (default 10s).
	Cooldown time.Duration
	// Checkpoint enables periodic decision-state snapshots; after a monitor
	// crash (faults.KindMonitorCrash) the monitor restores from the last
	// checkpoint instead of cold-restarting.
	Checkpoint bool
	// CheckpointEvery spaces checkpoints; zero checkpoints every poll.
	CheckpointEvery time.Duration
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

// lostReplica is one replica excised when its node was declared dead,
// awaiting either replacement (reconciler scale-out) or re-adoption (node
// recovered before the replacement ran).
type lostReplica struct {
	service string
	id      string
	node    string
	alloc   resources.Vector
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
// attachment order. Nodes are healthy until the detector (SelfHeal.Enabled)
// observes a missed poll.
func (m *Monitor) NodeConditions() []NodeCondition {
	out := make([]NodeCondition, 0, len(m.nms))
	for _, nm := range m.nms {
		c := NodeCondition{Node: nm.NodeID()}
		if st, ok := m.nodeStates[nm.NodeID()]; ok {
			c.Health = st.health
			c.MissedPolls = st.missed
		}
		out = append(out, c)
	}
	return out
}

// event journals one self-healing event. No-op unless Obs is set.
func (m *Monitor) event(now time.Duration, kind obs.EventKind, node, service, cid, detail string) {
	if m.Obs == nil {
		return
	}
	m.Obs.Event(obs.Event{At: now, Kind: kind, Node: node, Service: service, Container: cid, Detail: detail})
}

// noteMissedPoll advances the failure detector after a failed stats query.
func (m *Monitor) noteMissedPoll(nodeID string, now time.Duration) {
	if !m.SelfHeal.Enabled {
		return
	}
	st := m.nodeStates[nodeID]
	if st == nil {
		st = &nodeState{}
		m.nodeStates[nodeID] = st
	}
	if st.health == NodeDead {
		return // already ruled; nothing further to detect
	}
	st.missed++
	if st.health == NodeHealthy && st.missed >= m.SelfHeal.suspectAfter() {
		st.health = NodeSuspect
		m.recovery.Suspected++
		m.event(now, obs.EventNodeSuspect, nodeID, "", "", fmt.Sprintf("%d missed polls", st.missed))
	}
	if st.health == NodeSuspect && st.missed >= m.SelfHeal.deadAfter() {
		st.health = NodeDead
		m.declareDead(nodeID, now)
	}
}

// notePollOK resets the detector after a successful stats query, recovering
// a suspect or dead node.
func (m *Monitor) notePollOK(nodeID string, now time.Duration) {
	if !m.SelfHeal.Enabled {
		return
	}
	st := m.nodeStates[nodeID]
	if st == nil || (st.missed == 0 && st.health == NodeHealthy) {
		return
	}
	was := st.health
	st.missed = 0
	st.health = NodeHealthy
	if was == NodeHealthy {
		return
	}
	m.recovery.Recovered++
	m.event(now, obs.EventNodeRecovered, nodeID, "", "", "was "+was.String())
	if was == NodeDead {
		m.reconcileRecovery(nodeID, now)
	}
}

// nodeDead reports whether the detector has ruled nodeID dead.
func (m *Monitor) nodeDead(nodeID string) bool {
	st := m.nodeStates[nodeID]
	return st != nil && st.health == NodeDead
}

// limboHome returns the node a vanished replica should still be attributed
// to: its last-known host, while that host is unreachable but not yet ruled
// dead. During this grace the replica stays in the snapshot (served from
// cached stats) so the algorithm does not double-provision before the
// detector decides.
func (m *Monitor) limboHome(id string) string {
	if !m.SelfHeal.Enabled {
		return ""
	}
	home, ok := m.replicaHome[id]
	if !ok {
		return ""
	}
	if _, attached := m.nmByID[home]; !attached {
		return ""
	}
	st := m.nodeStates[home]
	if st == nil || st.missed == 0 || st.health == NodeDead {
		return ""
	}
	return home
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
	if cached := m.lastReports[home]; cached != nil {
		for _, cs := range cached.rep.Containers {
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

	notBefore := now + m.SelfHeal.cooldown()
	for _, st := range m.services {
		kept := st.replicaIDs[:0]
		for _, id := range st.replicaIDs {
			if m.replicaHome[id] != nodeID {
				kept = append(kept, id)
				continue
			}
			alloc := st.info.InitialAlloc
			if c, _ := m.findReplica(id); c != nil {
				alloc = c.Alloc
			} else if cached := m.lastReports[nodeID]; cached != nil {
				for _, cs := range cached.rep.Containers {
					if cs.ID == id {
						alloc = cs.Requested
						break
					}
				}
			}
			m.lost = append(m.lost, lostReplica{
				service: st.spec.Name, id: id, node: nodeID, alloc: alloc,
			})
			delete(m.replicaHome, id)
			m.recovery.ReplicasLost++
			// NodeID is left empty: the placement is resolved against live
			// capacity when the action finally executes, not now.
			m.retries = append(m.retries, pendingAction{
				action:        core.ScaleOut{Service: st.spec.Name, Alloc: alloc},
				notBefore:     notBefore,
				reconcileNode: nodeID,
				lostID:        id,
			})
			m.event(now, obs.EventReconcileEnqueue, nodeID, st.spec.Name, id, "replace after "+m.SelfHeal.cooldown().String())
		}
		for i := len(kept); i < len(st.replicaIDs); i++ {
			st.replicaIDs[i] = ""
		}
		st.replicaIDs = kept
	}
	m.topoGen++ // dead node's replicas left every desired set
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
		if act, ok := p.action.(core.ScaleOut); ok {
			m.event(now, obs.EventReconcileCancel, nodeID, act.Service, p.lostID, "node recovered")
		}
	}
	for i := len(kept); i < len(m.retries); i++ {
		m.retries[i] = pendingAction{}
	}
	m.retries = kept

	remaining := m.lost[:0]
	for _, l := range m.lost {
		if l.node != nodeID {
			remaining = append(remaining, l)
			continue
		}
		c, node := m.findReplica(l.id)
		alive := c != nil && c.State != container.StateRemoved
		switch {
		case !alive:
			// Nothing survived the outage; the replacement (ran or
			// cancelled) is all there is.
		case l.replaced:
			m.removeFrom(node, l.id)
			m.recovery.StaleDrained++
			m.event(now, obs.EventStaleDrained, nodeID, l.service, l.id, "")
		default:
			if st, ok := m.byName[l.service]; ok {
				st.replicaIDs = append(st.replicaIDs, l.id)
				m.replicaHome[l.id] = nodeID
				m.recovery.Readopted++
				m.event(now, obs.EventReadopted, nodeID, l.service, l.id, "")
			}
		}
	}
	m.lost = remaining
	m.topoGen++ // re-adoptions and stale drains changed the replica sets
}

// finishLost marks a lost replica's replacement as done. When the dead node
// is gone for good (detached), the record is dropped — there is no recovery
// left to reconcile against.
func (m *Monitor) finishLost(lostID string) {
	for i := range m.lost {
		if m.lost[i].id != lostID {
			continue
		}
		if _, attached := m.nmByID[m.lost[i].node]; !attached {
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
	at          time.Duration
	retries     []pendingAction
	lastReports map[string]cachedReport
	nodeStates  map[string]nodeState
	lost        []lostReplica
	replicaIDs  map[string][]string
	replicaHome map[string]string
}

// CheckpointNow snapshots the Monitor's decision state unconditionally.
// Node reports are deep-copied: the live cache entries reuse their Containers
// buffers every poll, and a checkpoint must not see those later overwrites.
func (m *Monitor) CheckpointNow(now time.Duration) {
	cp := &checkpoint{
		at:          now,
		retries:     append([]pendingAction(nil), m.retries...),
		lastReports: make(map[string]cachedReport, len(m.lastReports)),
		nodeStates:  make(map[string]nodeState, len(m.nodeStates)),
		lost:        append([]lostReplica(nil), m.lost...),
		replicaIDs:  make(map[string][]string, len(m.services)),
		replicaHome: make(map[string]string, len(m.replicaHome)),
	}
	for k, v := range m.lastReports {
		frozen := cachedReport{rep: v.rep, at: v.at}
		frozen.rep.Containers = append([]nodemanager.ContainerStats(nil), v.rep.Containers...)
		cp.lastReports[k] = frozen
	}
	for k, v := range m.nodeStates {
		cp.nodeStates[k] = *v
	}
	for _, st := range m.services {
		cp.replicaIDs[st.spec.Name] = append([]string(nil), st.replicaIDs...)
	}
	for k, v := range m.replicaHome {
		cp.replicaHome[k] = v
	}
	m.lastCheckpoint = cp
	m.lastCheckpointAt = now
}

// MaybeCheckpoint snapshots decision state when checkpointing is enabled
// and CheckpointEvery has elapsed since the last snapshot (zero spacing
// checkpoints every call). The platform calls this after each poll.
func (m *Monitor) MaybeCheckpoint(now time.Duration) {
	if !m.SelfHeal.Checkpoint {
		return
	}
	if m.lastCheckpoint != nil && m.SelfHeal.CheckpointEvery > 0 &&
		now-m.lastCheckpointAt < m.SelfHeal.CheckpointEvery {
		return
	}
	m.CheckpointNow(now)
}

// Restart brings the Monitor back after a crash window: from the last
// checkpoint when checkpointing is on and one exists, otherwise cold — the
// retry queue, detector state and lost-replica ledger are gone, and the
// desired replica sets are rediscovered from whatever containers still run.
func (m *Monitor) Restart(now time.Duration) {
	if m.SelfHeal.Checkpoint && m.lastCheckpoint != nil {
		m.restore(m.lastCheckpoint, now)
		return
	}
	m.coldRestart(now)
}

func (m *Monitor) restore(cp *checkpoint, now time.Duration) {
	m.retries = append([]pendingAction(nil), cp.retries...)
	m.lastReports = make(map[string]*cachedReport, len(cp.lastReports))
	for k, v := range cp.lastReports {
		restored := &cachedReport{rep: v.rep, at: v.at}
		// Copy out of the checkpoint so post-restore polls appending into the
		// live cache never mutate the frozen state; the hosts cache rebuilds
		// lazily (hostsOK is false).
		restored.rep.Containers = append([]nodemanager.ContainerStats(nil), v.rep.Containers...)
		m.lastReports[k] = restored
	}
	m.nodeStates = make(map[string]*nodeState, len(cp.nodeStates))
	for k, v := range cp.nodeStates {
		st := v
		m.nodeStates[k] = &st
	}
	m.lost = append([]lostReplica(nil), cp.lost...)
	for _, st := range m.services {
		st.replicaIDs = append([]string(nil), cp.replicaIDs[st.spec.Name]...)
	}
	m.replicaHome = make(map[string]string, len(cp.replicaHome))
	for k, v := range cp.replicaHome {
		m.replicaHome[k] = v
	}
	m.topoGen++ // restored replica sets may differ from the cached view
	m.recovery.CheckpointRestores++
	m.event(now, obs.EventCheckpointRestore, "", "", "", fmt.Sprintf("checkpoint from %v", cp.at))
}

// coldRestart models a monitor process that restarts with no durable state:
// it re-discovers replicas from the cluster (docker ps) but loses the retry
// queue, the detector's evidence, and the lost-replica ledger — re-
// placements that had not run yet simply never happen.
func (m *Monitor) coldRestart(now time.Duration) {
	m.retries = nil
	m.lastReports = make(map[string]*cachedReport)
	m.nodeStates = make(map[string]*nodeState)
	m.lost = nil
	m.replicaHome = make(map[string]string)
	for _, st := range m.services {
		ids := make([]string, 0, len(st.replicaIDs))
		for _, c := range m.cluster.ReplicasOf(st.spec.Name) {
			ids = append(ids, c.ID)
			m.replicaHome[c.ID] = c.NodeID
		}
		sortReplicaIDs(ids)
		st.replicaIDs = ids
	}
	m.topoGen++ // rediscovered replica sets invalidate every cache
	m.recovery.ColdRestarts++
	m.event(now, obs.EventColdRestart, "", "", "", "")
}

// sortReplicaIDs orders rediscovered replica IDs by their creation index
// ("<service>-<idx>"), so a cold restart yields the same replica order on
// every run.
func sortReplicaIDs(ids []string) {
	idx := func(id string) int {
		if i := strings.LastIndex(id, "-"); i >= 0 {
			if n, err := strconv.Atoi(id[i+1:]); err == nil {
				return n
			}
		}
		return 0
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && idx(ids[j]) < idx(ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
