// Package monitor implements the MONITOR of the paper's platform (§V-C): the
// central arbiter that periodically queries every node manager for resource
// statistics, hands the cluster-wide snapshot to the configured autoscaling
// algorithm, and executes the resulting plan — vertical `docker update`s,
// replica scale-outs with container start latency, and replica removals
// (whose in-flight requests become removal failures).
//
// The Monitor is hardened against a flaky control plane (see
// internal/faults): failed or faulted actions are retried with capped
// exponential backoff, scale-outs that hit placement failures are requeued
// for the next monitoring period instead of dropped, and when a node
// manager's stats query is lost the Monitor degrades gracefully by scaling
// on its last-known report within a staleness bound.
package monitor

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/core"
	"hyscale/internal/faults"
	"hyscale/internal/nodemanager"
	"hyscale/internal/obs"
	"hyscale/internal/resources"
	"hyscale/internal/workload"
)

// ActionCounts tallies the scaling operations the Monitor has executed,
// used by the resource-efficiency and resilience analyses.
type ActionCounts struct {
	Vertical  uint64
	ScaleOuts uint64
	ScaleIns  uint64
	// PlacementFailures counts scale-out attempts that could not be
	// executed because the target node no longer fit the allocation.
	PlacementFailures uint64
	// Retries counts re-executed attempts of previously failed actions.
	Retries uint64
	// AbandonedActions counts actions dropped after exhausting their retry
	// budget (or immediately, when hardening is disabled).
	AbandonedActions uint64
	// StaleSnapshots counts node reports served from the last-known cache
	// because the live stats query was lost.
	StaleSnapshots uint64
}

// Hardening constants: retries start one monitor period (5 s) after the
// failure, back off to 40 s and give up after 4 executions; a cached report
// stands in for a lost stats query for up to 15 s (three periods).
const (
	retryBackoffBase = 5 * time.Second
	retryBackoffMax  = 40 * time.Second
	maxAttempts      = 4
	stalenessBound   = 15 * time.Second
)

// serviceState tracks a registered microservice.
type serviceState struct {
	spec workload.ServiceSpec
	// info.Ord is the service's registration ordinal, its index in the
	// plane's service table; a spillover shard carries its home's.
	info core.ServiceInfo
	// replicas lists the service's replicas in creation order, and hosts
	// their nodes, index for index. A replica leaves both when this arbiter
	// removes or excises it; one whose container reads StateRemoved
	// otherwise vanished with its node (see Snapshot).
	replicas []*container.Container
	hosts    []*cluster.Node
	nextIdx  int

	// guest marks a cross-zone spillover shard: the service's home arbiter
	// lives in another zone, and this monitor merely hosts a bounded slice
	// of its replicas (see plane evacuation). Guest services are excluded
	// from the snapshot so the local algorithm never scales them; their
	// replicas still serve traffic, count against node capacity, and are
	// covered by the failure detector.
	guest bool

	// holdPolls withholds this service from algorithm decisions for that
	// many polls. A zone readoption re-places every replica at once, so the
	// very next decision would see fresh containers with zero observed
	// usage and trim them to the minimum; one held poll lets real stats
	// arrive first. Reconciler retries are unaffected.
	holdPolls int

	// name is the service's Name in the journal, interned on the first
	// snapshot that journals it (0 until then, and without a journal).
	name obs.Name

	// obs is the service's observation in the latest snapshot that
	// journaled it, taken by obsBy. Only maintained when journal is set.
	obs   observation
	obsBy *Monitor
}

// add appends a replica placed on node.
func (st *serviceState) add(c *container.Container, node *cluster.Node) {
	st.replicas = append(st.replicas, c)
	st.hosts = append(st.hosts, node)
}

// forget drops c from the replicas; a no-op when st does not list it.
func (st *serviceState) forget(c *container.Container) {
	if i := slices.Index(st.replicas, c); i >= 0 {
		st.replicas = slices.Delete(st.replicas, i, i+1)
		st.hosts = slices.Delete(st.hosts, i, i+1)
	}
}

// truncate keeps the first n replicas, releasing the rest.
func (st *serviceState) truncate(n int) {
	clear(st.replicas[n:])
	clear(st.hosts[n:])
	st.replicas, st.hosts = st.replicas[:n], st.hosts[:n]
}

// replica is one replica's container and host node, both nil when it is
// gone.
type replica struct {
	c    *container.Container
	node *cluster.Node
}

// observation is a service's aggregate usage in a snapshot, with the
// service's journal Name.
type observation struct {
	usage obs.ServiceObserved
	name  obs.Name
}

// pendingAction is one queued action awaiting its deadline: a failed action
// backing off, or a reconciler re-placement waiting out its cooldown.
type pendingAction struct {
	action core.Action
	// attempts is the number of executions so far.
	attempts  int
	notBefore time.Duration
	// target is the replica a queued vertical or scale-in acts on.
	target replica
	// reconcileNode tags a reconciler re-placement with the dead node it
	// compensates for, so a prompt recovery cancels it (the anti-flap path).
	reconcileNode string
	// lost is the lost replica's container this re-placement replaces.
	lost *container.Container
}

// cachedReport is a node manager's last successfully delivered report. The
// Containers slice is owned by this cache entry (the NM reports into it) so
// it can outlive the poll for the staleness-degradation and checkpoint
// paths.
type cachedReport struct {
	rep nodemanager.Report
	at  time.Duration
	// ok is set once the node delivered a report; until then, and after a
	// cold restart, there is none to stand in for a lost query.
	ok bool

	// hosts is the deduplicated service list derived from rep.Containers,
	// rebuilt only when the node's container set version moves.
	hosts    []string
	hostsVer uint64
	hostsOK  bool
}

// nodeEntry is one attached node's state in its arbiter: the node's
// manager, the last report it delivered and the failure detector's record.
type nodeEntry struct {
	nm  *nodemanager.Manager
	rep cachedReport
	det nodeState
}

// Monitor is the central arbiter. Single-goroutine, like the rest of the
// simulator.
type Monitor struct {
	cluster *cluster.Cluster
	// nodes holds one entry per attached node, in attachment order, and
	// nodeByID each entry's index by node ID.
	nodes    []nodeEntry
	nodeByID map[string]int
	algo     core.Algorithm

	services []*serviceState

	// startDelay is the container start latency applied to scale-outs.
	startDelay time.Duration

	// onRemoval is invoked for every in-flight request killed by a
	// scale-in. Nil is allowed.
	onRemoval func(*workload.Request)

	// faults injects control-plane failures; nil injects nothing.
	faults *faults.Injector

	// hardeningOff disables retry/backoff, placement-failure requeue and
	// stale-snapshot degradation: failed actions are dropped and lost stats
	// queries blank the node out of the snapshot.
	hardeningOff bool

	// selfHeal configures the failure detector, desired-state reconciler and
	// checkpoint/restore (see selfheal.go). Zero value: disabled.
	selfHeal SelfHealing

	// journal, when non-nil, records every action attempt with the observed
	// service inputs that motivated it (the decision-trace observability
	// layer). Nil keeps the hot path untouched.
	journal *obs.Journal

	// plane is the control plane this arbiter belongs to and zone its index
	// there. The arbiter resolves service ordinals through the plane's table
	// (stateOf), asks the plane to lease capacity after a placement finds no
	// fitting node, and asks whether a zone-outage or zone-partition window
	// cuts a node.
	plane *Plane
	zone  int

	retries []pendingAction
	// departed keeps, for each service that left this monitor after one of
	// its snapshots journaled it, that last observation: a decision about
	// a service this monitor no longer observes still reports what it last
	// saw here (see observation). Keyed by service ordinal; only maintained
	// when journal is set.
	departed map[int]observation

	// lost is the reconciler's ledger of replicas excised from dead nodes
	// (see selfheal.go).
	lost []lostReplica

	// lastCheckpoint is the checkpoint a restart restores, nil when there
	// is none or a topology change voided it; checkpointBuf is the storage
	// every checkpoint overwrites.
	lastCheckpoint   *checkpoint
	lastCheckpointAt time.Duration
	checkpointBuf    *checkpoint

	counts   ActionCounts
	recovery RecoveryCounts

	// Snapshot scratch, reused every poll so the steady-state monitor loop
	// allocates nothing (see Snapshot). The snapshot handed to the algorithm
	// aliases these buffers and is valid until the next Snapshot call — every
	// consumer (Poll → Decide → Apply) runs synchronously inside that window.
	// scratch holds the ordinal tables, which the plane's arbiters share.
	scratch      *pollScratch
	seenGen      map[string]uint64
	gen          uint64
	snapNodes    []core.NodeStats
	snapServices []core.ServiceStats
	detachBuf    []string

	// names, set while VerifyOrdinals is on, is the name-keyed reference
	// the node entries are checked against (see verifyNodes).
	names *nameKeyed

	// sampling lists the managers of occupied nodes, in nodes order, as of
	// cluster generation sampleGen; zero forces a rebuild after the
	// manager set changed.
	sampling  []*nodemanager.Manager
	sampleGen uint64
}

// Counts returns the cumulative action counters.
func (m *Monitor) Counts() ActionCounts { return m.counts }

// PendingRetries returns the number of actions waiting in the retry queue.
func (m *Monitor) PendingRetries() int { return len(m.retries) }

// DetachNode drops the node manager of a failed machine so the Monitor
// stops querying it. Call after cluster.RemoveNode. Unknown IDs are a no-op.
func (m *Monitor) DetachNode(nodeID string) {
	i, ok := m.nodeByID[nodeID]
	if !ok {
		return
	}
	delete(m.nodeByID, nodeID)
	if m.names != nil {
		m.names.forget(nodeID)
	}
	m.nodes = slices.Delete(m.nodes, i, i+1)
	for k := i; k < len(m.nodes); k++ {
		m.nodeByID[m.nodes[k].nm.NodeID()] = k
	}
	m.sampleGen = 0
}

// AttachNode registers a node manager for a newly added machine (the
// paper's future-work item of dynamic machine addition). A machine re-added
// under the ID of one the arbiter still tracks takes over that node's
// entry: its manager now queries the new machine, and the detector record
// stays, so the first answered poll counts as the node's recovery.
func (m *Monitor) AttachNode(n *cluster.Node) {
	if i, dup := m.nodeByID[n.ID()]; dup {
		if e := &m.nodes[i]; e.nm.Node() != n {
			// The hosts cache is keyed on the old machine's version.
			e.nm = nodemanager.New(n)
			e.rep.hostsOK = false
			m.sampleGen = 0
		}
		return
	}
	m.nodeByID[n.ID()] = len(m.nodes)
	m.nodes = append(m.nodes, nodeEntry{nm: nodemanager.New(n)})
	m.sampleGen = 0
}

// entry returns the entry of the attached node nodeID, nil when none is
// attached under that ID.
func (m *Monitor) entry(nodeID string) *nodeEntry {
	if i, ok := m.nodeByID[nodeID]; ok {
		return &m.nodes[i]
	}
	return nil
}

// addService registers a microservice with its scaling target under
// registration ordinal ord and returns its state. No replicas are created;
// call deployInitial (or let the algorithm's min-replica enforcement do it).
func (m *Monitor) addService(spec workload.ServiceSpec, targetUtil float64, ord int) (*serviceState, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	st := &serviceState{
		spec: spec,
		info: core.ServiceInfo{
			Name:          spec.Name,
			Ord:           ord,
			MinReplicas:   spec.MinReplicas,
			MaxReplicas:   spec.MaxReplicas,
			TargetUtil:    targetUtil,
			BaselineMemMB: spec.BaselineMemMB,
			InitialAlloc: resources.Vector{
				CPU:     spec.InitialReplicaCPU,
				MemMB:   spec.InitialReplicaMemMB,
				NetMbps: spec.InitialReplicaNetMbps,
			},
		},
	}
	m.services = append(m.services, st)
	return st, nil
}

// stateOf returns this arbiter's state of service ord: the home state when
// the arbiter is the service's home, else the spillover shard it hosts, else
// nil.
func (m *Monitor) stateOf(ord int) *serviceState {
	e := &m.plane.services[ord]
	if e.home.mon == m {
		return e.st
	}
	for _, sh := range e.spills {
		if sh.za.mon == m {
			return sh.st
		}
	}
	return nil
}

// serviceName returns the name of service ord, for journal and event text.
func (m *Monitor) serviceName(ord int) string { return m.plane.services[ord].name }

// unregister drops st from the service list. A service this monitor's
// snapshots journaled leaves its last observation behind.
func (m *Monitor) unregister(st *serviceState) {
	if st.obsBy == m {
		if m.departed == nil {
			m.departed = make(map[int]observation)
		}
		m.departed[st.info.Ord] = st.obs
	}
	m.services = slices.DeleteFunc(m.services, func(x *serviceState) bool { return x == st })
}

// deployInitial starts the service's minimum replica count, spreading
// across the least-loaded nodes. Initial deployments are warm: the replicas
// are ready immediately, modelling services already running before the
// experiment's measurement window opens (only autoscaler-initiated
// scale-outs pay the container start latency, and only those see injected
// faults).
func (m *Monitor) deployInitial(st *serviceState, now time.Duration) error {
	for len(st.replicas) < st.spec.MinReplicas {
		nodeID := m.place(st.info.InitialAlloc)
		if nodeID == "" {
			return fmt.Errorf("monitor: no node fits initial replica of %q", st.spec.Name)
		}
		if err := m.startReplicaAt(st, nodeID, st.info.InitialAlloc, now); err != nil {
			return err
		}
	}
	return nil
}

// place picks the node for a new replica of alloc: the least-loaded
// fitting node, leasing one more machine when none fits. "" when none fits
// even then.
func (m *Monitor) place(alloc resources.Vector) string {
	if id := m.leastLoadedNode(alloc); id != "" || !m.lease(alloc) {
		return id
	}
	return m.leastLoadedNode(alloc)
}

// leastLoadedNode returns the node with the most available CPU that fits
// alloc, or "".
func (m *Monitor) leastLoadedNode(alloc resources.Vector) string {
	best := ""
	bestCPU := -1.0
	for _, n := range m.cluster.Nodes() {
		if m.nodeDead(n.ID()) {
			// Never place onto a node the failure detector has ruled dead,
			// even if it still appears in the cluster (partitioned).
			continue
		}
		a := n.Available()
		if !alloc.FitsIn(a) {
			continue
		}
		if a.CPU > bestCPU {
			bestCPU = a.CPU
			best = n.ID()
		}
	}
	return best
}

// appendLive appends st's live replicas, in creation order, to buf and
// returns the extended slice.
func (m *Monitor) appendLive(buf []*container.Container, st *serviceState) []*container.Container {
	for _, c := range st.replicas {
		if c.State != container.StateRemoved {
			buf = append(buf, c)
		}
	}
	return buf
}

// liveReplicas counts st's replicas whose container is still on its node.
func (m *Monitor) liveReplicas(st *serviceState) int {
	n := 0
	for _, c := range st.replicas {
		if c.State != container.StateRemoved {
			n++
		}
	}
	return n
}

// Sample forwards a stats-sampling tick to every node manager of an
// occupied node; the others have nothing to sample.
func (m *Monitor) Sample() {
	if g := m.cluster.Generation(); g != m.sampleGen {
		m.sampling = m.sampling[:0]
		for i := range m.nodes {
			if nm := m.nodes[i].nm; nm.Occupied() {
				m.sampling = append(m.sampling, nm)
			}
		}
		m.sampleGen = g
	}
	for _, nm := range m.sampling {
		nm.Sample()
	}
}

// Poll executes one monitoring period: re-attempt due retries, query all
// NMs, build the snapshot, ask the algorithm for a plan, and apply it.
// Retries run before the snapshot so replicas they start are visible to the
// algorithm and not double-provisioned.
func (m *Monitor) Poll(now time.Duration) {
	m.drainRetries(now)
	snap := m.Snapshot(now)
	plan := m.algo.Decide(snap)
	m.Apply(plan, now)
	m.releaseHolds()
}

// releaseHolds ticks down per-service decision holds after a poll's plan was
// applied. Only a zone readoption sets one.
func (m *Monitor) releaseHolds() {
	for _, st := range m.services {
		if st.holdPolls > 0 {
			st.holdPolls--
		}
	}
}

// drainRetries re-executes every pending action whose backoff deadline has
// passed, in the order the failures occurred.
func (m *Monitor) drainRetries(now time.Duration) {
	if len(m.retries) == 0 {
		return
	}
	var due []pendingAction
	kept := m.retries[:0]
	for _, p := range m.retries {
		if p.notBefore <= now {
			due = append(due, p)
		} else {
			kept = append(kept, p)
		}
	}
	for i := len(kept); i < len(m.retries); i++ {
		m.retries[i] = pendingAction{}
	}
	m.retries = kept
	for _, p := range due {
		// Reconciler re-placements enter the queue before any execution, so
		// their first run is not a retry.
		if p.attempts > 0 {
			m.counts.Retries++
		}
		m.execute(p, now, nil)
	}
}

// Snapshot assembles the cluster-wide view from NM reports. A report whose
// stats query was dropped is replaced by the node's last-known report when
// hardening allows (within StalenessBound); otherwise the node is absent
// from the snapshot this period, exactly as if its manager were offline.
//
// The returned snapshot aliases per-Monitor scratch buffers: it is valid
// until the next Snapshot call, which is exactly the Poll→Decide→Apply
// window. In steady state (no container churn, no faults) assembling it
// allocates nothing and looks up no replica by name: replicas are read from
// the service's list, their stats by container slot and their hosts' ledger
// slots by node ordinal. It fills every ordinal the algorithm
// plans with (ReplicaStats.Slot, Snapshot.Slots and Epoch), and records
// what each replica resolved to, so Apply resolves the plan's actions by
// ordinal too.
func (m *Monitor) Snapshot(now time.Duration) core.Snapshot {
	ps := m.scratch
	snap := core.Snapshot{Now: now, Epoch: ps.begin(m)}
	m.trackNames(verifyOrdinals.Load())

	// One report per node; index container stats for replica lookup. Every
	// node of this arbiter's view answers for its zone, so one zone cut
	// covers them all.
	m.snapNodes = m.snapNodes[:0]
	m.snapServices = m.snapServices[:0]
	zoneCut := m.plane.zoneStatsCut(now, m.zone)
	for i := range m.nodes {
		e := &m.nodes[i]
		nm := e.nm
		node := nm.Node()
		if m.plane.viewZone(node) != m.zone {
			// The view does not hold the manager's node; it may hold another
			// machine under the same ID.
			node = m.cluster.Node(nm.NodeID())
		}
		if node == nil {
			// The machine is gone from the cluster entirely: no cached
			// report can stand in for a node that hosts nothing. The
			// detector accrues the miss; once it rules the node dead the
			// reconciler takes over (legacy runs detach such nodes
			// out-of-band and never reach here).
			m.noteMissedPoll(e, now)
			continue
		}
		ps.noteNode(node, nm, -1)
		cached := &e.rep
		if id := nm.NodeID(); m.faults.StatsDropped(now, id) || m.faults.StatsBlackout(now, id) || zoneCut {
			m.noteMissedPoll(e, now)
			if m.hardeningOff || !cached.ok || now-cached.at > stalenessBound {
				// No usable data: the node vanishes from this snapshot.
				continue
			}
			m.counts.StaleSnapshots++
		} else {
			// The NM reports straight into the cache's own buffer, which
			// must survive for the staleness-degradation and checkpoint
			// paths.
			nm.Report(&cached.rep)
			cached.at, cached.ok = now, true
			if m.names != nil {
				m.names.report(cached)
			}
			m.notePollOK(e, now)
		}
		for i := range cached.rep.Containers {
			ps.putStats(&cached.rep.Containers[i])
		}
		// The deduplicated hosts list only changes when containers are placed
		// or removed; key it on the node's version so unchanged nodes skip
		// the rebuild entirely.
		if v := node.Version(); !cached.hostsOK || cached.hostsVer != v {
			cached.hosts = cached.hosts[:0]
			m.gen++
			for _, cs := range cached.rep.Containers {
				if m.seenGen[cs.Service] != m.gen {
					m.seenGen[cs.Service] = m.gen
					cached.hosts = append(cached.hosts, cs.Service)
				}
			}
			cached.hostsVer = v
			cached.hostsOK = true
		}
		ps.noteNode(node, nm, len(m.snapNodes))
		ns := growNodeStats(&m.snapNodes)
		ns.ID = cached.rep.NodeID
		ns.Capacity = cached.rep.Capacity
		ns.Available = cached.rep.Available
		ns.Hosts = append(ns.Hosts[:0], cached.hosts...)
	}
	snap.Nodes = m.snapNodes
	ps.slots = len(snap.Nodes)

	// A node both ruled dead and gone from the cluster can never answer
	// under this identity again; stop tracking it. Done outside the node
	// loop so the slice is not mutated mid-iteration.
	if m.selfHeal.Enabled {
		detach := m.detachBuf[:0]
		for i := range m.nodes {
			if e := &m.nodes[i]; e.det.health == NodeDead && m.cluster.Node(e.nm.NodeID()) == nil {
				detach = append(detach, e.nm.NodeID())
			}
		}
		m.detachBuf = detach
		for _, id := range detach {
			m.DetachNode(id)
		}
	}

	for _, st := range m.services {
		if st.guest {
			// Spillover shards are not this zone's to scale: keep them out
			// of the snapshot so the algorithm neither grows nor shrinks
			// them. Their capacity still shows in the node stats above.
			continue
		}
		ss := growServiceStats(&m.snapServices)
		ss.Info = st.info
		ss.Replicas = ss.Replicas[:0]
		kept := 0
		for k, c := range st.replicas {
			node := st.hosts[k]
			if c.State != container.StateRemoved {
				rs := core.ReplicaStats{ContainerID: c.ID, NodeID: node.ID(), Slot: ps.slotOf(node, node.ID())}
				if cs := ps.statsOf(c); cs != nil {
					rs.Requested, rs.Usage, rs.Routable, rs.Inflight = cs.Requested, cs.Usage, cs.Routable, cs.Inflight
				} else {
					rs.Requested, rs.Routable = c.Alloc, c.Routable()
				}
				ss.Replicas = append(ss.Replicas, rs)
				ps.reps = append(ps.reps, replicaRef{c: c, node: node, nm: ps.managerOf(node), st: st})
			} else if home := node.ID(); m.inLimbo(home) {
				// A replica that vanished with an unreachable-but-undecided
				// node stays in the snapshot on last-known data, so the
				// algorithm does not double-provision before the detector
				// rules the node dead or recovered.
				rs := m.lastKnownReplica(c.ID, home, st)
				rs.Slot = ps.slotOf(m.cluster.Node(home), home)
				ss.Replicas = append(ss.Replicas, rs)
				ps.reps = append(ps.reps, replicaRef{st: st})
			} else {
				continue // vanished for good: it leaves the lists
			}
			if kept != k {
				st.replicas[kept], st.hosts[kept] = c, node
			}
			kept++
		}
		st.truncate(kept)
		if m.journal != nil {
			ob := obs.ServiceObserved{Replicas: len(ss.Replicas)}
			for _, r := range ss.Replicas {
				ob.CPU += r.Usage.CPU
				ob.MemMB += r.Usage.MemMB
				ob.NetMbps += r.Usage.NetMbps
				ob.RequestedCPU += r.Requested.CPU
			}
			if st.name == 0 {
				st.name = m.journal.Intern(st.spec.Name)
			}
			st.obs, st.obsBy = observation{usage: ob, name: st.name}, m
		}
	}
	snap.Services = m.snapServices
	snap.Slots = ps.slots
	if m.names != nil {
		m.verifySnapshot(snap)
		m.verifyNodes()
	}
	return snap
}

// growNodeStats extends s by one entry, recycling the backing array (and the
// recycled entry's Hosts buffer) when capacity allows — the trick that keeps
// nested snapshot slices allocation-free across polls.
func growNodeStats(s *[]core.NodeStats) *core.NodeStats {
	if cap(*s) > len(*s) {
		*s = (*s)[:len(*s)+1]
	} else {
		*s = append(*s, core.NodeStats{})
	}
	return &(*s)[len(*s)-1]
}

// growServiceStats is growNodeStats for the services slice, preserving each
// recycled entry's Replicas buffer.
func growServiceStats(s *[]core.ServiceStats) *core.ServiceStats {
	if cap(*s) > len(*s) {
		*s = (*s)[:len(*s)+1]
	} else {
		*s = append(*s, core.ServiceStats{})
	}
	return &(*s)[len(*s)-1]
}

// observe journals one action attempt with its outcome and the observed
// inputs from the snapshot that motivated it. createdID names the replica a
// successful scale-out started; t is what a vertical or scale-in action
// resolved to, so the journal never looks it up again. No-op unless journal
// is set.
func (m *Monitor) observe(a core.Action, now time.Duration, attempt int, outcome obs.Outcome, createdID string, t replica) {
	if m.journal == nil {
		return
	}
	j, ps := m.journal, m.scratch
	d := obs.Decision{At: now, Attempt: attempt, Outcome: outcome, Alloc: a.Alloc}
	var container, node obs.Name
	switch a.Kind {
	case core.ScaleOut:
		d.Kind = obs.KindScaleOut
		container, node = j.Intern(createdID), j.Intern(a.NodeID)
	default:
		d.Kind = obs.KindVertical
		if a.Kind == core.ScaleIn {
			d.Kind, d.Alloc = obs.KindScaleIn, resources.Vector{}
		}
		if t.c != nil {
			container, node = ps.containerName(j, t.c), ps.nodeName(j, t.node)
		} else {
			container = j.Intern(a.ContainerID)
		}
	}
	o := m.observation(int(a.Svc) - 1)
	d.Observed = o.usage
	j.DecisionFor(o.name, container, node, d)
}

// observation returns the observation a decision about service ord reports:
// that of the latest snapshot of this monitor that journaled the service. A
// service that never showed in one reports none, under its interned name.
func (m *Monitor) observation(ord int) observation {
	if st := m.stateOf(ord); st != nil && st.obsBy == m {
		return st.obs
	}
	if o, ok := m.departed[ord]; ok {
		return o
	}
	return observation{name: m.journal.Intern(m.serviceName(ord))}
}

// Apply executes a plan decided from this monitor's latest snapshot, action
// by action, resolving each vertical and scale-in through the replica
// ordinal it carries and each scale-out through its service ordinal.
// Actions against services under a decision hold (freshly readopted, see
// serviceState.holdPolls) are dropped: the algorithm decided off zero-usage
// stats for replicas placed this very period. A plan from any other
// snapshot, an action whose replica ordinal is not one of its replicas, or
// a scale-out whose service ordinal names no home service of this arbiter
// is a caller bug and panics.
func (m *Monitor) Apply(plan core.Plan, now time.Duration) {
	if len(plan.Actions) == 0 {
		return
	}
	ps := m.scratch
	if !ps.owns(m, plan.Epoch) {
		panic(fmt.Sprintf("monitor: zone %d: plan from snapshot %d, not this arbiter's latest (%d)", m.zone, plan.Epoch, ps.epoch))
	}
	verify := verifyOrdinals.Load()
	for _, a := range plan.Actions {
		if a.Svc <= 0 || int(a.Svc) > len(m.plane.services) {
			panic(fmt.Sprintf("monitor: action carries service ordinal %d of %d", a.Svc-1, len(m.plane.services)))
		}
		var ref *replicaRef
		var st *serviceState
		if a.Kind == core.ScaleOut {
			if st = m.stateOf(int(a.Svc) - 1); st == nil || st.guest {
				panic(fmt.Sprintf("monitor: zone %d: scale-out of service %d, not a home service here", m.zone, a.Svc-1))
			}
		} else {
			if a.Replica <= 0 || int(a.Replica) > len(ps.reps) {
				panic(fmt.Sprintf("monitor: action on %s carries replica ordinal %d of a %d-replica snapshot", a.ContainerID, a.Replica, len(ps.reps)))
			}
			ref = &ps.reps[a.Replica-1]
			st = ref.st
		}
		if st.holdPolls > 0 {
			continue
		}
		if verify {
			m.verifyAction(a, ref)
		}
		m.execute(pendingAction{action: a}, now, ref)
	}
}

// actionsCut reports whether control actions towards nodeID are black-holed
// at now — by a node-keyed partition window or by a zone window on the node's
// current zone. node is the machine nodeID resolved to, nil when the caller
// holds only the ID.
func (m *Monitor) actionsCut(now time.Duration, node *cluster.Node, nodeID string) bool {
	return m.faults.ActionBlackout(now, nodeID) || m.plane.actionsCut(now, node, nodeID)
}

// lease asks the plane for one more machine after a placement of alloc found
// no fitting node, and reports whether one arrived (the placement is then
// retried once). A one-zone plane has no donor, so it answers no without
// scanning.
func (m *Monitor) lease(alloc resources.Vector) bool {
	return len(m.plane.zones) > 1 && m.plane.leaseInto(m.zone, alloc)
}

// resolveTarget resolves a vertical or scale-in action's container and its
// host node, both nil when it is gone: ref, what the snapshot resolved it
// to, for an action of the latest plan, else t, the target queued work
// carries. It also returns the container's node manager, nil when none is
// attached.
func (m *Monitor) resolveTarget(t replica, ref *replicaRef) (replica, *nodemanager.Manager) {
	if ref == nil {
		if t.c != nil && t.c.State != container.StateRemoved {
			if e := m.entry(t.c.NodeID); e != nil {
				return t, e.nm
			}
			return t, nil
		}
		return replica{}, nil
	}
	if ref.c == nil || ref.c.State == container.StateRemoved {
		return replica{}, nil
	}
	return replica{c: ref.c, node: ref.node}, ref.nm
}

// execute runs one attempt of an action; p.attempts counts prior
// executions. ref is what the snapshot resolved the action's replica to, nil
// for queued work, which carries its target. Faulted, black-holed or
// placement-failed attempts are requeued with backoff (when hardening is
// enabled) or abandoned.
func (m *Monitor) execute(p pendingAction, now time.Duration, ref *replicaRef) {
	a := p.action
	switch a.Kind {
	case core.VerticalScale:
		t, nm := m.resolveTarget(p.target, ref)
		p.target = t
		c := t.c
		if c == nil || nm == nil {
			m.observe(a, now, p.attempts, obs.OutcomeMoot, "", t)
			return // target gone; the action is moot, not failed
		}
		if m.actionsCut(now, t.node, c.NodeID) || m.faults.VerticalFails(now, a.ContainerID) {
			m.observe(a, now, p.attempts, m.requeue(p, now), "", t)
			return
		}
		if err := nm.ApplyVertical(c, a.Alloc); err == nil {
			m.counts.Vertical++
			m.observe(a, now, p.attempts, obs.OutcomeApplied, "", t)
		} else {
			m.observe(a, now, p.attempts, obs.OutcomeRejected, "", t)
		}
	case core.ScaleOut:
		st := m.stateOf(int(a.Svc) - 1)
		if st == nil {
			return
		}
		// A queued scale-out (retry or reconciler re-placement) may have
		// been overtaken by the algorithm's own fresh decisions; never push
		// past the replica ceiling.
		if (p.attempts > 0 || p.lost != nil) && m.liveReplicas(st) >= st.spec.MaxReplicas {
			if p.lost != nil {
				// The ceiling already covers the lost capacity; treat the
				// original as superseded so a recovery drains it.
				m.finishLost(p.lost)
			}
			m.observe(a, now, p.attempts, obs.OutcomeOvertaken, "", replica{})
			return
		}
		// Reconciler re-placements carry no node: resolve against live
		// capacity at execution time, not at enqueue time.
		if a.NodeID == "" {
			if a.NodeID = m.place(a.Alloc); a.NodeID == "" {
				m.counts.PlacementFailures++
				m.observe(a, now, p.attempts, m.requeue(p, now), "", replica{})
				return
			}
		}
		if m.actionsCut(now, nil, a.NodeID) {
			m.observe(a, now, p.attempts, m.requeue(p, now), "", replica{})
			return
		}
		var fail bool
		var slowBy time.Duration
		if m.faults != nil {
			// The injector hashes this key: it stays "<service>/<idx>".
			fail, slowBy = m.faults.StartFault(now, st.spec.Name+"/"+strconv.Itoa(st.nextIdx))
		}
		if fail {
			m.observe(a, now, p.attempts, m.requeue(p, now), "", replica{})
			return
		}
		err := m.startReplica(st, a.NodeID, a.Alloc, now, slowBy)
		if err != nil && p.attempts > 0 {
			// The originally chosen node filled up while the action waited;
			// fall back to the best currently fitting node.
			if alt := m.leastLoadedNode(a.Alloc); alt != "" && alt != a.NodeID {
				a.NodeID = alt
				err = m.startReplica(st, alt, a.Alloc, now, slowBy)
			}
		}
		if err != nil && m.lease(a.Alloc) {
			if alt := m.leastLoadedNode(a.Alloc); alt != "" && alt != a.NodeID {
				a.NodeID = alt
				err = m.startReplica(st, alt, a.Alloc, now, slowBy)
			}
		}
		if err != nil {
			m.counts.PlacementFailures++
			m.observe(a, now, p.attempts, m.requeue(p, now), "", replica{})
		} else {
			created := st.replicas[len(st.replicas)-1].ID
			if p.lost != nil {
				m.finishLost(p.lost)
				m.recovery.Replaced++
				m.event(now, obs.EventReplicaReplaced, a.NodeID, st.spec.Name, created, "replaces "+p.lost.ID)
			}
			m.observe(a, now, p.attempts, obs.OutcomeApplied, created, replica{})
		}
	case core.ScaleIn:
		t, _ := m.resolveTarget(p.target, ref)
		p.target = t
		if t.node == nil {
			m.observe(a, now, p.attempts, obs.OutcomeMoot, "", t)
			return
		}
		if m.actionsCut(now, t.node, t.node.ID()) {
			m.observe(a, now, p.attempts, m.requeue(p, now), "", t)
			return
		}
		m.observe(a, now, p.attempts, obs.OutcomeApplied, "", t)
		m.removeFrom(t.node, t.c)
		if st := m.stateOf(int(a.Svc) - 1); st != nil {
			st.forget(t.c)
		}
	}
}

// requeue schedules another attempt of a failed action with capped
// exponential backoff, returning OutcomeRequeued — or abandons it and
// returns OutcomeAbandoned when the budget is spent (or hardening is off).
// Reconcile tags (reconcileNode, lostID) survive the requeue, so a recovery
// can still cancel the re-placement mid-backoff.
func (m *Monitor) requeue(p pendingAction, now time.Duration) obs.Outcome {
	executed := p.attempts + 1
	if m.hardeningOff || executed >= maxAttempts {
		m.counts.AbandonedActions++
		return obs.OutcomeAbandoned
	}
	p.attempts = executed
	p.notBefore = now + min(retryBackoffBase<<(executed-1), retryBackoffMax)
	m.retries = append(m.retries, p)
	return obs.OutcomeRequeued
}

func (m *Monitor) startReplica(st *serviceState, nodeID string, alloc resources.Vector, now time.Duration, slowBy time.Duration) error {
	// Stateful services pay the state-transfer time on top of the container
	// start latency (§IV-B's motivation for preferring vertical scaling);
	// injected slow starts stretch readiness further.
	return m.startReplicaWithReady(st, nodeID, alloc, now+m.startDelay+st.spec.SyncDelay()+slowBy, false)
}

// startReplicaAt starts a replica that is ready immediately (warm initial
// deployment).
func (m *Monitor) startReplicaAt(st *serviceState, nodeID string, alloc resources.Vector, now time.Duration) error {
	return m.startReplicaWithReady(st, nodeID, alloc, now, true)
}

func (m *Monitor) startReplicaWithReady(st *serviceState, nodeID string, alloc resources.Vector, readyAt time.Duration, warm bool) error {
	node := m.cluster.Node(nodeID)
	if node == nil {
		return fmt.Errorf("monitor: unknown node %q", nodeID)
	}
	id := fmt.Sprintf("%s-%d", st.spec.Name, st.nextIdx)
	st.nextIdx++
	c := container.New(id, st.spec, nodeID, alloc, readyAt)
	if warm {
		c.MaybeStart(readyAt)
	}
	if err := node.AddContainer(c); err != nil {
		st.nextIdx-- // the slot was never used; keep IDs dense
		return err
	}
	st.add(c, node)
	m.counts.ScaleOuts++
	return nil
}

// removeFrom removes container c from its node, handing every request it
// kills to onRemoval. The caller drops c from whatever list holds it.
func (m *Monitor) removeFrom(node *cluster.Node, c *container.Container) {
	killed := node.RemoveContainer(c.ID)
	m.counts.ScaleIns++
	if m.onRemoval != nil {
		for _, r := range killed {
			m.onRemoval(r)
		}
	}
}
