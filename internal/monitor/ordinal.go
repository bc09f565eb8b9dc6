package monitor

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync/atomic"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/core"
	"hyscale/internal/nodemanager"
	"hyscale/internal/obs"
)

// pollScratch is one poll's ordinal state: the tables Snapshot resolves
// replicas and nodes through, and what it resolved each snapshot replica to,
// kept for Apply. Arbiters poll one at a time, so a Plane shares one
// pollScratch across all of them, sized once to the Plane's node and
// container population. DESIGN.md §12 walks the poll path it serves.
type pollScratch struct {
	// epoch numbers the snapshots taken with this scratch, and owner took
	// the latest. A table entry stamped with an older epoch is stale.
	epoch uint64
	owner *Monitor

	// nodes is indexed by cluster.Node.Ord: each polled node's manager and
	// ledger slot, -1 for a polled node the snapshot leaves out.
	nodes []nodeRef
	// stats indexes the snapshot's container stats by their Slot. A stale
	// cached report can list a removed container whose slot a live container
	// now holds: the first entry keeps the slot, and another ID listed at a
	// taken slot goes to extra, which is empty otherwise.
	stats []statRef
	extra map[string]*nodemanager.ContainerStats
	// absent issues ledger slots past the end of the snapshot's nodes to the
	// hosts it leaves out, keyed by node ID as the name-keyed ledger was;
	// slots counts every slot issued.
	absent map[string]int
	slots  int

	// reps is indexed by flat replica ordinal (core.Action.Replica - 1) of
	// the latest snapshot: what Snapshot resolved each replica to.
	reps []replicaRef

	// Journal Names for journal, cached so a decision costs no name lookup:
	// containers by Container.Slot, checked against the ID since slots are
	// reissued, and nodes by Node.Ord.
	journal        *obs.Journal
	containerNames []containerName
	nodeNames      []obs.Name
}

// nodeRef is one polled node's entry in pollScratch.nodes.
type nodeRef struct {
	epoch uint64
	slot  int
	nm    *nodemanager.Manager
}

// statRef is one container's entry in pollScratch.stats; cs points into a
// cached report, which stays put until the node's next report.
type statRef struct {
	epoch uint64
	cs    *nodemanager.ContainerStats
}

// replicaRef is what Snapshot resolved one snapshot replica to: its
// container and host node (nil for a replica served from last-known data,
// whose container is gone), the host's node manager and the replica's
// service. Within one Apply it stays what a scan of the cluster view would
// find: the only topology changes there are scale-ins and scale-outs, and a
// plan never acts on a replica after scaling it in.
type replicaRef struct {
	c    *container.Container
	node *cluster.Node
	nm   *nodemanager.Manager
	st   *serviceState
}

// containerName is one container's cached journal Name.
type containerName struct {
	id   string
	name obs.Name
}

// begin starts a snapshot for m and returns its epoch.
func (ps *pollScratch) begin(m *Monitor) uint64 {
	ps.epoch++
	ps.owner = m
	ps.reps = ps.reps[:0]
	if len(ps.extra) > 0 {
		clear(ps.extra)
	}
	if len(ps.absent) > 0 {
		clear(ps.absent)
	}
	ps.slots = 0
	return ps.epoch
}

// owns reports whether a plan decided from snapshot epoch can be resolved
// by ordinal on m: the latest snapshot taken with this scratch is that one,
// and m took it.
func (ps *pollScratch) owns(m *Monitor, epoch uint64) bool {
	return epoch != 0 && epoch == ps.epoch && ps.owner == m
}

// noteNode records a polled node's manager and ledger slot.
func (ps *pollScratch) noteNode(n *cluster.Node, nm *nodemanager.Manager, slot int) {
	ord := n.Ord()
	if ord >= len(ps.nodes) {
		ps.nodes = append(ps.nodes, make([]nodeRef, ord+1-len(ps.nodes))...)
	}
	ps.nodes[ord] = nodeRef{epoch: ps.epoch, slot: slot, nm: nm}
}

// polled returns n's entry when this snapshot polled it, else nil.
func (ps *pollScratch) polled(n *cluster.Node) *nodeRef {
	if ord := n.Ord(); ord < len(ps.nodes) && ps.nodes[ord].epoch == ps.epoch {
		return &ps.nodes[ord]
	}
	return nil
}

// slotOf returns the ledger slot of the host named id, resolved to n (nil
// when the node is gone from the cluster view): its snapshot index when the
// snapshot lists it, else the absent slot every replica on that host shares.
func (ps *pollScratch) slotOf(n *cluster.Node, id string) int {
	if n != nil {
		if r := ps.polled(n); r != nil && r.slot >= 0 {
			return r.slot
		}
	}
	if s, ok := ps.absent[id]; ok {
		return s
	}
	if ps.absent == nil {
		ps.absent = make(map[string]int)
	}
	s := ps.slots
	ps.absent[id] = s
	ps.slots++
	return s
}

// managerOf returns the manager of n when this snapshot polled it. A node
// in the view that was not polled has no manager attached.
func (ps *pollScratch) managerOf(n *cluster.Node) *nodemanager.Manager {
	if r := ps.polled(n); r != nil {
		return r.nm
	}
	return nil
}

// putStats indexes one reported container's stats.
func (ps *pollScratch) putStats(cs *nodemanager.ContainerStats) {
	if cs.Slot >= len(ps.stats) {
		ps.stats = append(ps.stats, make([]statRef, cs.Slot+1-len(ps.stats))...)
	}
	e := &ps.stats[cs.Slot]
	switch {
	case e.epoch != ps.epoch:
		*e = statRef{epoch: ps.epoch, cs: cs}
	case e.cs.ID == cs.ID:
		e.cs = cs
	default:
		if ps.extra == nil {
			ps.extra = make(map[string]*nodemanager.ContainerStats)
		}
		ps.extra[cs.ID] = cs
	}
}

// statsOf returns c's stats in this snapshot, or nil when no report lists
// it.
func (ps *pollScratch) statsOf(c *container.Container) *nodemanager.ContainerStats {
	if c.Slot < len(ps.stats) {
		if e := ps.stats[c.Slot]; e.epoch == ps.epoch && e.cs.ID == c.ID {
			return e.cs
		}
	}
	if len(ps.extra) > 0 {
		return ps.extra[c.ID]
	}
	return nil
}

// names readies the journal Name caches for j.
func (ps *pollScratch) names(j *obs.Journal) {
	if ps.journal != j {
		ps.journal = j
		clear(ps.containerNames)
		clear(ps.nodeNames)
	}
}

// containerName returns c's journal Name, interning it on first use.
func (ps *pollScratch) containerName(j *obs.Journal, c *container.Container) obs.Name {
	ps.names(j)
	if c.Slot >= len(ps.containerNames) {
		ps.containerNames = append(ps.containerNames, make([]containerName, c.Slot+1-len(ps.containerNames))...)
	}
	e := &ps.containerNames[c.Slot]
	if e.name == 0 || e.id != c.ID {
		*e = containerName{id: c.ID, name: j.Intern(c.ID)}
	}
	return e.name
}

// nodeName returns n's journal Name, interning it on first use.
func (ps *pollScratch) nodeName(j *obs.Journal, n *cluster.Node) obs.Name {
	ps.names(j)
	ord := n.Ord()
	if ord >= len(ps.nodeNames) {
		ps.nodeNames = append(ps.nodeNames, make([]obs.Name, ord+1-len(ps.nodeNames))...)
	}
	if ps.nodeNames[ord] == 0 {
		ps.nodeNames[ord] = j.Intern(n.ID())
	}
	return ps.nodeNames[ord]
}

// verifyOrdinals, when set, makes every Snapshot and every action of a plan
// check its resolution against a resolution by name through the cluster
// scan and panic on any difference. It costs one atomic load per snapshot and per plan when
// off. Tests set it through VerifyOrdinals.
var verifyOrdinals atomic.Bool

// VerifyOrdinals turns the ordinal-resolution self-check on or off and
// returns the previous setting. It exists for tests: the check re-resolves
// every snapshot replica and every ordinal-resolved action by name.
func VerifyOrdinals(on bool) bool { return verifyOrdinals.Swap(on) }

// verifySnapshot checks every ordinal snap carries, and everything Snapshot
// resolved, against a resolution by name: each replica's container, node,
// node manager and stats against cluster.FindContainer over this arbiter's
// view, the manager attached under the node's ID and a stats map built
// from the snapshot's reports as the name-keyed Snapshot built it, and each
// replica's ledger slot against its host's place in snap.Nodes. It panics
// on the first difference.
func (m *Monitor) verifySnapshot(snap core.Snapshot) {
	ps := m.scratch
	stats := make(map[string]nodemanager.ContainerStats)
	index := make(map[string]int, len(snap.Nodes))
	for i, n := range snap.Nodes {
		index[n.ID] = i
		for _, cs := range m.entry(n.ID).rep.rep.Containers {
			stats[cs.ID] = cs
		}
	}
	absent := make(map[string]int)
	slotHost := make(map[int]string)
	k := 0
	for _, ss := range snap.Services {
		for _, rs := range ss.Replicas {
			ref := ps.reps[k]
			k++
			if ref.st == nil || ref.st.spec.Name != ss.Info.Name {
				panic(fmt.Sprintf("monitor: replica %s: ordinal resolves to the wrong service", rs.ContainerID))
			}
			c, node := m.cluster.FindContainer(rs.ContainerID)
			if ref.c == nil || ref.c.State == container.StateRemoved {
				if c != nil {
					panic(fmt.Sprintf("monitor: replica %s: ordinal finds no container, the cluster scan finds one", rs.ContainerID))
				}
			} else {
				if ref.c != c || ref.node != node {
					panic(fmt.Sprintf("monitor: replica %s: ordinal resolves to %p on %p, the cluster scan to %p on %p",
						rs.ContainerID, ref.c, ref.node, c, node))
				}
				if ref.nm != m.managerByID(c.NodeID) {
					panic(fmt.Sprintf("monitor: replica %s: ordinal resolves a different node manager", rs.ContainerID))
				}
				want := core.ReplicaStats{ContainerID: rs.ContainerID, NodeID: node.ID(), Slot: rs.Slot,
					Requested: c.Alloc, Routable: c.Routable()}
				if cs, ok := stats[rs.ContainerID]; ok {
					want.Requested, want.Usage, want.Routable, want.Inflight = cs.Requested, cs.Usage, cs.Routable, cs.Inflight
				}
				if rs != want {
					panic(fmt.Sprintf("monitor: replica %s: stats %+v, by name %+v", rs.ContainerID, rs, want))
				}
			}
			if i, listed := index[rs.NodeID]; listed {
				if rs.Slot != i {
					panic(fmt.Sprintf("monitor: replica %s: slot %d, its host %s is node %d", rs.ContainerID, rs.Slot, rs.NodeID, i))
				}
				continue
			}
			if s, seen := absent[rs.NodeID]; seen && s != rs.Slot {
				panic(fmt.Sprintf("monitor: replica %s: unlisted host %s has slots %d and %d", rs.ContainerID, rs.NodeID, s, rs.Slot))
			}
			if h, seen := slotHost[rs.Slot]; (seen && h != rs.NodeID) || rs.Slot < len(snap.Nodes) || rs.Slot >= snap.Slots {
				panic(fmt.Sprintf("monitor: replica %s: unlisted host %s has slot %d", rs.ContainerID, rs.NodeID, rs.Slot))
			}
			absent[rs.NodeID], slotHost[rs.Slot] = rs.Slot, rs.NodeID
		}
	}
	if k != len(ps.reps) || snap.Slots != len(snap.Nodes)+len(absent) {
		panic(fmt.Sprintf("monitor: snapshot has %d replicas and %d slots, resolved %d and issued %d",
			k, len(snap.Nodes)+len(absent), len(ps.reps), snap.Slots))
	}
}

// verifyAction checks an action's ordinals against the latest snapshot and
// what ref resolves it to against cluster.FindContainer and the manager
// attached under the container's node ID, just
// before the action executes. It panics on the first difference.
func (m *Monitor) verifyAction(a core.Action, ref *replicaRef) {
	if a.Node > 0 {
		if n := m.snapNodes[a.Node-1]; n.ID != a.NodeID {
			panic(fmt.Sprintf("monitor: scale-out to %s carries the ordinal of node %s", a.NodeID, n.ID))
		}
	}
	if !slices.ContainsFunc(m.snapServices, func(ss core.ServiceStats) bool { return ss.Info.Ord == int(a.Svc)-1 }) {
		panic(fmt.Sprintf("monitor: action carries service ordinal %d, which the snapshot does not list", a.Svc-1))
	}
	if ref == nil {
		return
	}
	k := int(a.Replica - 1)
	for _, ss := range m.snapServices {
		if k < len(ss.Replicas) {
			if id := ss.Replicas[k].ContainerID; id != a.ContainerID {
				panic(fmt.Sprintf("monitor: action on %s carries the ordinal of replica %s", a.ContainerID, id))
			}
			if ss.Info.Ord != int(a.Svc)-1 {
				panic(fmt.Sprintf("monitor: action on %s carries service ordinal %d, its replica's is %d", a.ContainerID, a.Svc-1, ss.Info.Ord))
			}
			break
		}
		k -= len(ss.Replicas)
	}
	t, nm := m.resolveTarget(replica{}, ref)
	c, node := m.cluster.FindContainer(a.ContainerID)
	var want *nodemanager.Manager
	if c != nil {
		want = m.managerByID(c.NodeID)
	}
	if t.c != c || t.node != node || nm != want {
		panic(fmt.Sprintf("monitor: action on %s: ordinal resolves to %p on %p, the cluster scan to %p on %p",
			a.ContainerID, t.c, t.node, c, node))
	}
}

// managerByID returns the manager attached under nodeID, nil when none is.
func (m *Monitor) managerByID(nodeID string) *nodemanager.Manager {
	if e := m.entry(nodeID); e != nil {
		return e.nm
	}
	return nil
}

// nameKeyed is the reference the node entries are checked against while
// VerifyOrdinals is on: each node's last report and detector record in maps
// keyed by node ID, kept as the arbiter kept them before its node state
// moved into entries. The same events write it — a delivered report, a
// missed or answered poll — a detach deletes a node's keys, a checkpoint
// copies both maps whole, a restore puts that copy back, keys of nodes
// detached since included, and a cold restart empties them.
type nameKeyed struct {
	reports   map[string]cachedReport
	states    map[string]nodeState
	cpReports map[string]cachedReport
	cpStates  map[string]nodeState
}

// trackNames starts the name-keyed reference from the arbiter's entries and
// retained checkpoint when on, and drops it when off.
func (m *Monitor) trackNames(on bool) {
	if !on {
		m.names = nil
		return
	}
	if m.names != nil {
		return
	}
	nk := &nameKeyed{reports: map[string]cachedReport{}, states: map[string]nodeState{},
		cpReports: map[string]cachedReport{}, cpStates: map[string]nodeState{}}
	for i := range m.nodes {
		keyByName(nk.reports, nk.states, &m.nodes[i])
	}
	if cp := m.lastCheckpoint; cp != nil {
		for i := range cp.nodes {
			keyByName(nk.cpReports, nk.cpStates, &cp.nodes[i])
		}
	}
	m.names = nk
}

// keyByName copies e's report and detector record into reports and states
// under its node's ID.
func keyByName(reports map[string]cachedReport, states map[string]nodeState, e *nodeEntry) {
	id := e.nm.NodeID()
	if e.rep.ok {
		reports[id] = copyReport(&e.rep)
	}
	if e.det != (nodeState{}) {
		states[id] = e.det
	}
}

// copyReport deep-copies r's report and time, leaving the hosts cache
// unset.
func copyReport(r *cachedReport) cachedReport {
	c := cachedReport{rep: r.rep, at: r.at, ok: r.ok}
	c.rep.Containers = slices.Clone(r.rep.Containers)
	return c
}

func (nk *nameKeyed) report(r *cachedReport) { nk.reports[r.rep.NodeID] = copyReport(r) }

func (nk *nameKeyed) miss(nodeID string, s SelfHealing) {
	st := nk.states[nodeID]
	st.miss(s)
	nk.states[nodeID] = st
}

func (nk *nameKeyed) answer(nodeID string) {
	if st, ok := nk.states[nodeID]; ok {
		st.answer()
		nk.states[nodeID] = st
	}
}

func (nk *nameKeyed) forget(nodeID string) {
	delete(nk.reports, nodeID)
	delete(nk.states, nodeID)
}

func (nk *nameKeyed) checkpoint() {
	nk.cpReports, nk.cpStates = copyReports(nk.reports), maps.Clone(nk.states)
}

func (nk *nameKeyed) restore() {
	nk.reports, nk.states = copyReports(nk.cpReports), maps.Clone(nk.cpStates)
}

func (nk *nameKeyed) clear() {
	clear(nk.reports)
	clear(nk.states)
}

// copyReports deep-copies every report of rs.
func copyReports(rs map[string]cachedReport) map[string]cachedReport {
	out := make(map[string]cachedReport, len(rs))
	for id, r := range rs {
		out[id] = copyReport(&r)
	}
	return out
}

// verifyNodes checks each node entry against the name-keyed reference: the
// entry's index under its node's ID, its report (present or not, and equal
// when present) and its detector record (a node with no record has a clean
// one). It also checks each tracked node's zone, and the plane's view
// membership by node ordinal against the view's lookup by ID. It panics on
// the first difference.
func (m *Monitor) verifyNodes() {
	nk := m.names
	for i := range m.nodes {
		e := &m.nodes[i]
		id := e.nm.NodeID()
		if k, ok := m.nodeByID[id]; !ok || k != i {
			panic(fmt.Sprintf("monitor: zone %d: node %s is entry %d, indexed as %d", m.zone, id, i, k))
		}
		want, reported := nk.reports[id]
		if got := copyReport(&e.rep); got.ok != reported || (reported && !reflect.DeepEqual(got, want)) {
			panic(fmt.Sprintf("monitor: zone %d: node %s: entry report %+v, by name %+v (reported %v)", m.zone, id, got, want, reported))
		}
		if want := nk.states[id]; e.det != want {
			panic(fmt.Sprintf("monitor: zone %d: node %s: entry detector record %+v, by name %+v", m.zone, id, e.det, want))
		}
		if z, ok := m.plane.zoneOfNode[id]; !ok || z != m.zone {
			panic(fmt.Sprintf("monitor: zone %d tracks node %s, which zoneOfNode puts in zone %d", m.zone, id, z))
		}
		n := e.nm.Node()
		if held := m.cluster.Node(id) == n; (m.plane.viewZone(n) == m.zone) != held {
			panic(fmt.Sprintf("monitor: zone %d: node %s: view membership by ordinal %v, by ID %v", m.zone, id, !held, held))
		}
	}
	for _, n := range m.cluster.Nodes() {
		if m.plane.viewZone(n) != m.zone {
			panic(fmt.Sprintf("monitor: zone %d: view holds node %s, its ordinal does not", m.zone, n.ID()))
		}
	}
}
