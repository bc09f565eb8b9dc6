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
	"strings"
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

// Hardening configures the Monitor's resilience to control-plane faults.
type Hardening struct {
	// Enabled turns on retry/backoff, placement-failure requeue and
	// stale-snapshot degradation. Disabled reproduces the legacy behaviour:
	// failed actions are dropped and lost stats queries blank the node out
	// of the snapshot.
	Enabled bool
	// RetryBackoffBase is the delay before the first retry; each further
	// retry doubles it.
	RetryBackoffBase time.Duration
	// RetryBackoffMax caps the exponential backoff.
	RetryBackoffMax time.Duration
	// MaxAttempts bounds total executions of one action (first try
	// included) before it is abandoned.
	MaxAttempts int
	// StalenessBound is how old a cached node report may be and still
	// stand in for a lost stats query.
	StalenessBound time.Duration
}

// DefaultHardening returns the default resilience settings: retries start
// one monitor period (5 s) after the failure, back off to 40 s, give up
// after 4 attempts, and snapshots tolerate 15 s (three periods) of
// staleness.
func DefaultHardening() Hardening {
	return Hardening{
		Enabled:          true,
		RetryBackoffBase: 5 * time.Second,
		RetryBackoffMax:  40 * time.Second,
		MaxAttempts:      4,
		StalenessBound:   15 * time.Second,
	}
}

// serviceState tracks a registered microservice.
type serviceState struct {
	spec workload.ServiceSpec
	info core.ServiceInfo
	// replicaIDs lists live container IDs in creation order.
	replicaIDs []string
	nextIdx    int

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

	// resolved caches replicaIDs resolved to container pointers, valid
	// while resolvedGen matches Monitor.topoGen. Per-request routing walks
	// this instead of re-resolving IDs through three map lookups each.
	resolved    []*container.Container
	resolvedGen uint64
}

// pendingAction is one queued action awaiting its deadline: a failed action
// backing off, or a reconciler re-placement waiting out its cooldown.
type pendingAction struct {
	action core.Action
	// attempts is the number of executions so far.
	attempts  int
	notBefore time.Duration
	// reconcileNode tags a reconciler re-placement with the dead node it
	// compensates for, so a prompt recovery cancels it (the anti-flap path).
	reconcileNode string
	// lostID names the lost replica this re-placement replaces.
	lostID string
}

// cachedReport is a node manager's last successfully delivered report. The
// Containers slice is owned by this cache entry (copied from the NM's scratch
// report, which is reused every poll) so it can outlive the poll for the
// staleness-degradation and checkpoint paths.
type cachedReport struct {
	rep nodemanager.Report
	at  time.Duration

	// hosts is the deduplicated service list derived from rep.Containers,
	// rebuilt only when the node's container set version moves.
	hosts    []string
	hostsVer uint64
	hostsOK  bool
}

// Monitor is the central arbiter. Single-goroutine, like the rest of the
// simulator.
type Monitor struct {
	cluster *cluster.Cluster
	nms     []*nodemanager.Manager
	nmByID  map[string]*nodemanager.Manager
	algo    core.Algorithm

	services []*serviceState
	byName   map[string]*serviceState

	// held counts services with holdPolls > 0, so the hold machinery costs
	// nothing when idle (always, outside zone readoptions).
	held int

	// StartDelay is the container start latency applied to scale-outs.
	StartDelay time.Duration

	// OnRemovalFailure is invoked for every in-flight request killed by a
	// scale-in. Nil is allowed.
	OnRemovalFailure func(*workload.Request)

	// Faults injects control-plane failures; nil injects nothing.
	Faults *faults.Injector

	// Hardening configures retry/backoff and graceful degradation.
	Hardening Hardening

	// SelfHeal configures the failure detector, desired-state reconciler and
	// checkpoint/restore (see selfheal.go). Zero value: disabled.
	SelfHeal SelfHealing

	// Obs, when non-nil, journals every action attempt with the observed
	// service inputs that motivated it (the decision-trace observability
	// layer). Nil — the default — keeps the hot path untouched.
	Obs *obs.Journal

	// OutOfCapacity, when non-nil, is consulted after a placement finds no
	// fitting node: it may add capacity (the zoned control plane leases an
	// idle machine from another zone) and returns whether it did, in which
	// case the placement is retried once. Nil — the single-arbiter default —
	// leaves every placement path byte-identical to the unsharded monitor.
	OutOfCapacity func(alloc resources.Vector) bool

	// StatsCut / ActionsCut, when non-nil, report an additional sustained
	// blackout of a node's stats answers / control actions beyond what the
	// node-keyed fault injector knows. The zoned control plane installs
	// these so zone-outage and zone-partition windows — keyed by zone index,
	// which only the plane's zone map can resolve — reach the per-zone
	// monitors. Nil (the default) keeps every fault path byte-identical.
	StatsCut   func(now time.Duration, nodeID string) bool
	ActionsCut func(now time.Duration, nodeID string) bool

	retries     []pendingAction
	lastReports map[string]*cachedReport
	// lastObs caches each service's aggregate observed usage from the most
	// recent snapshot, attached to journaled decisions. Only maintained when
	// Obs is set.
	lastObs map[string]obs.ServiceObserved

	// nodeStates is the failure detector's per-node record; replicaHome maps
	// every live replica to its host node; lost is the reconciler's ledger of
	// replicas excised from dead nodes (see selfheal.go).
	nodeStates  map[string]*nodeState
	replicaHome map[string]string
	lost        []lostReplica

	// topoGen versions the replica topology: every scale action, node
	// attach/detach, and self-heal transition bumps it, invalidating the
	// per-service resolved replica caches.
	topoGen uint64

	lastCheckpoint   *checkpoint
	lastCheckpointAt time.Duration

	counts   ActionCounts
	recovery RecoveryCounts

	// Snapshot scratch, reused every poll so the steady-state monitor loop
	// allocates nothing (see Snapshot). The snapshot handed to the algorithm
	// aliases these buffers and is valid until the next Snapshot call — every
	// consumer (Poll → Decide → Apply) runs synchronously inside that window.
	statsByID    map[string]nodemanager.ContainerStats
	seenGen      map[string]uint64
	gen          uint64
	snapNodes    []core.NodeStats
	snapServices []core.ServiceStats
	detachBuf    []string

	// sampling lists the managers of occupied nodes, in nms order, as of
	// cluster generation sampleGen; zero forces a rebuild after the
	// manager set changed.
	sampling  []*nodemanager.Manager
	sampleGen uint64
}

// New wires a monitor to the cluster, creating one node manager per node,
// and installs the scaling algorithm. Hardening defaults on.
func New(cl *cluster.Cluster, algo core.Algorithm) *Monitor {
	m := &Monitor{
		cluster:     cl,
		nmByID:      make(map[string]*nodemanager.Manager),
		algo:        algo,
		byName:      make(map[string]*serviceState),
		StartDelay:  time.Second,
		Hardening:   DefaultHardening(),
		lastReports: make(map[string]*cachedReport),
		lastObs:     make(map[string]obs.ServiceObserved),
		nodeStates:  make(map[string]*nodeState),
		replicaHome: make(map[string]string),
		statsByID:   make(map[string]nodemanager.ContainerStats),
		seenGen:     make(map[string]uint64),
		topoGen:     1, // above the zero resolvedGen, so fresh services resolve
	}
	for _, n := range cl.Nodes() {
		nm := nodemanager.New(n)
		m.nms = append(m.nms, nm)
		m.nmByID[n.ID()] = nm
	}
	return m
}

// Algorithm returns the installed scaling algorithm.
func (m *Monitor) Algorithm() core.Algorithm { return m.algo }

// Counts returns the cumulative action counters.
func (m *Monitor) Counts() ActionCounts { return m.counts }

// PendingRetries returns the number of actions waiting in the retry queue.
func (m *Monitor) PendingRetries() int { return len(m.retries) }

// DetachNode drops the node manager of a failed machine so the Monitor
// stops querying it. Call after cluster.RemoveNode. Unknown IDs are a no-op.
func (m *Monitor) DetachNode(nodeID string) {
	if _, ok := m.nmByID[nodeID]; !ok {
		return
	}
	delete(m.nmByID, nodeID)
	delete(m.lastReports, nodeID)
	delete(m.nodeStates, nodeID)
	for i, nm := range m.nms {
		if nm.NodeID() == nodeID {
			m.nms = append(m.nms[:i], m.nms[i+1:]...)
			break
		}
	}
	m.sampleGen = 0
	m.topoGen++ // cached pointers may reference the departed node's containers
}

// AttachNode registers a node manager for a newly added machine (the
// paper's future-work item of dynamic machine addition).
func (m *Monitor) AttachNode(n *cluster.Node) {
	if _, dup := m.nmByID[n.ID()]; dup {
		return
	}
	nm := nodemanager.New(n)
	m.nms = append(m.nms, nm)
	m.nmByID[n.ID()] = nm
	m.sampleGen = 0
	m.topoGen++ // replicas unfindable while detached may resolve again
}

// AddService registers a microservice with its scaling target. No replicas
// are created; call DeployInitial (or let the algorithm's min-replica
// enforcement do it).
func (m *Monitor) AddService(spec workload.ServiceSpec, targetUtil float64) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if _, dup := m.byName[spec.Name]; dup {
		return fmt.Errorf("monitor: duplicate service %q", spec.Name)
	}
	st := &serviceState{
		spec: spec,
		info: core.ServiceInfo{
			Name:          spec.Name,
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
	m.byName[spec.Name] = st
	return nil
}

// DeployInitial starts the service's minimum replica count, spreading
// across the least-loaded nodes. Initial deployments are warm: the replicas
// are ready immediately, modelling services already running before the
// experiment's measurement window opens (only autoscaler-initiated
// scale-outs pay the container start latency, and only those see injected
// faults).
func (m *Monitor) DeployInitial(service string, now time.Duration) error {
	st, ok := m.byName[service]
	if !ok {
		return fmt.Errorf("monitor: unknown service %q", service)
	}
	for len(st.replicaIDs) < st.spec.MinReplicas {
		nodeID := m.leastLoadedNode(st.info.InitialAlloc)
		if nodeID == "" && m.OutOfCapacity != nil && m.OutOfCapacity(st.info.InitialAlloc) {
			nodeID = m.leastLoadedNode(st.info.InitialAlloc)
		}
		if nodeID == "" {
			return fmt.Errorf("monitor: no node fits initial replica of %q", service)
		}
		if err := m.startReplicaAt(st, nodeID, st.info.InitialAlloc, now); err != nil {
			return err
		}
	}
	return nil
}

// StartReplica manually starts one replica of the service on the given node
// with the given allocation — used by experiments that pin placement (the
// §III microbenchmarks) and by initial deployments.
func (m *Monitor) StartReplica(service, nodeID string, alloc resources.Vector, now time.Duration) error {
	st, ok := m.byName[service]
	if !ok {
		return fmt.Errorf("monitor: unknown service %q", service)
	}
	return m.startReplica(st, nodeID, alloc, now, 0)
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

// Replicas returns the live replicas of a service in creation order. It
// allocates a fresh slice the caller may keep; hot paths that route every
// request should use AppendReplicas with a reusable buffer instead.
func (m *Monitor) Replicas(service string) []*container.Container {
	return m.AppendReplicas(nil, service)
}

// AppendReplicas appends the live replicas of a service, in creation order,
// to buf and returns the extended slice — the zero-allocation variant of
// Replicas for per-request routing.
func (m *Monitor) AppendReplicas(buf []*container.Container, service string) []*container.Container {
	st, ok := m.byName[service]
	if !ok {
		return buf
	}
	for _, c := range m.resolvedFor(st) {
		if c.State != container.StateRemoved {
			buf = append(buf, c)
		}
	}
	return buf
}

// ReplicaCount returns the number of live replicas of a service without
// materialising the slice.
func (m *Monitor) ReplicaCount(service string) int {
	st, ok := m.byName[service]
	if !ok {
		return 0
	}
	n := 0
	for _, c := range m.resolvedFor(st) {
		if c.State != container.StateRemoved {
			n++
		}
	}
	return n
}

// resolvedFor returns st's replicas as container pointers, in creation
// order, rebuilding the cache after any topology change. The State filter
// stays with the callers: a replica removed by a scale-in flips to
// StateRemoved without a topology bump, and the pointer check is free.
func (m *Monitor) resolvedFor(st *serviceState) []*container.Container {
	if st.resolvedGen != m.topoGen {
		st.resolved = st.resolved[:0]
		for _, id := range st.replicaIDs {
			if c, _ := m.findReplica(id); c != nil {
				st.resolved = append(st.resolved, c)
			}
		}
		st.resolvedGen = m.topoGen
	}
	return st.resolved
}

// Sample forwards a stats-sampling tick to every node manager of an
// occupied node; the others have nothing to sample.
func (m *Monitor) Sample() {
	if g := m.cluster.Generation(); g != m.sampleGen {
		m.sampling = m.sampling[:0]
		for _, nm := range m.nms {
			if nm.Occupied() {
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
// applied. No-op unless a zone readoption set one this period.
func (m *Monitor) releaseHolds() {
	if m.held == 0 {
		return
	}
	for _, st := range m.services {
		if st.holdPolls > 0 {
			st.holdPolls--
			if st.holdPolls == 0 {
				m.held--
			}
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
		m.execute(p, now)
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
// allocates nothing — maps are cleared and slices resliced, never remade.
func (m *Monitor) Snapshot(now time.Duration) core.Snapshot {
	snap := core.Snapshot{Now: now}

	// One report per node; index container stats for replica lookup.
	clear(m.statsByID)
	m.snapNodes = m.snapNodes[:0]
	m.snapServices = m.snapServices[:0]
	for _, nm := range m.nms {
		id := nm.NodeID()
		node := m.cluster.Node(id)
		if node == nil {
			// The machine is gone from the cluster entirely: no cached
			// report can stand in for a node that hosts nothing. The
			// detector accrues the miss; once it rules the node dead the
			// reconciler takes over (legacy runs detach such nodes
			// out-of-band and never reach here).
			nm.NoteMissedQuery()
			m.noteMissedPoll(id, now)
			continue
		}
		var cached *cachedReport
		if m.Faults.StatsDropped(now, id) || m.Faults.StatsBlackout(now, id) ||
			(m.StatsCut != nil && m.StatsCut(now, id)) {
			nm.NoteMissedQuery()
			m.noteMissedPoll(id, now)
			cached = m.lastReports[id]
			if !m.Hardening.Enabled || cached == nil || now-cached.at > m.Hardening.StalenessBound {
				// No usable data: the node vanishes from this snapshot.
				continue
			}
			m.counts.StaleSnapshots++
		} else {
			rep := nm.Report()
			cached = m.lastReports[id]
			if cached == nil {
				cached = &cachedReport{}
				m.lastReports[id] = cached
			}
			// Copy into the cache's own buffer: the NM reuses its report
			// slice next poll, while this cache must survive for the
			// staleness-degradation and checkpoint paths.
			cached.rep.NodeID = rep.NodeID
			cached.rep.Capacity = rep.Capacity
			cached.rep.Available = rep.Available
			cached.rep.Containers = append(cached.rep.Containers[:0], rep.Containers...)
			cached.at = now
			m.notePollOK(id, now)
		}
		for _, cs := range cached.rep.Containers {
			m.statsByID[cs.ID] = cs
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
		ns := growNodeStats(&m.snapNodes)
		ns.ID = cached.rep.NodeID
		ns.Capacity = cached.rep.Capacity
		ns.Available = cached.rep.Available
		ns.Hosts = append(ns.Hosts[:0], cached.hosts...)
	}
	snap.Nodes = m.snapNodes

	// A node both ruled dead and gone from the cluster can never answer
	// under this identity again; stop tracking it. Done outside the node
	// loop so the slice is not mutated mid-iteration.
	if m.SelfHeal.Enabled {
		detach := m.detachBuf[:0]
		for _, nm := range m.nms {
			if id := nm.NodeID(); m.nodeDead(id) && m.cluster.Node(id) == nil {
				detach = append(detach, id)
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
		live := st.replicaIDs[:0]
		for _, id := range st.replicaIDs {
			c, node := m.findReplica(id)
			if c == nil || c.State == container.StateRemoved {
				// A replica that vanished with an unreachable-but-undecided
				// node stays in the snapshot on last-known data, so the
				// algorithm does not double-provision before the detector
				// rules the node dead or recovered.
				if home := m.limboHome(id); home != "" {
					live = append(live, id)
					ss.Replicas = append(ss.Replicas, m.lastKnownReplica(id, home, st))
				} else {
					delete(m.replicaHome, id)
				}
				continue
			}
			live = append(live, id)
			cs, ok := m.statsByID[id]
			if !ok {
				cs = nodemanager.ContainerStats{ID: id, Service: st.spec.Name, Requested: c.Alloc, Routable: c.Routable()}
			}
			ss.Replicas = append(ss.Replicas, core.ReplicaStats{
				ContainerID: id,
				NodeID:      node.ID(),
				Requested:   cs.Requested,
				Usage:       cs.Usage,
				Routable:    cs.Routable,
				Inflight:    cs.Inflight,
			})
		}
		if len(live) != len(st.replicaIDs) {
			m.topoGen++ // pruned vanished replicas from the desired set
		}
		st.replicaIDs = live
		if m.Obs != nil {
			ob := obs.ServiceObserved{Replicas: len(ss.Replicas)}
			for _, r := range ss.Replicas {
				ob.CPU += r.Usage.CPU
				ob.MemMB += r.Usage.MemMB
				ob.NetMbps += r.Usage.NetMbps
				ob.RequestedCPU += r.Requested.CPU
			}
			m.lastObs[st.spec.Name] = ob
		}
	}
	snap.Services = m.snapServices
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

// findReplica resolves a live replica ID to its container and host node in
// O(1) via the replicaHome index, falling back to the cluster-wide scan only
// when the index is stale (e.g. a checkpoint restored across topology
// changes) or the ID was never indexed (a lost replica). The fallback keeps
// behaviour identical to the original FindContainer-based lookup. It is the
// monitor's only container-by-ID lookup: every action, journal entry and
// self-heal transition resolves through it.
func (m *Monitor) findReplica(id string) (*container.Container, *cluster.Node) {
	if c, n := m.indexedReplica(id); c != nil {
		return c, n
	}
	return m.cluster.FindContainer(id)
}

// indexedReplica is findReplica without the scan: it answers only from the
// replicaHome index and returns nils on a miss.
func (m *Monitor) indexedReplica(id string) (*container.Container, *cluster.Node) {
	if home, ok := m.replicaHome[id]; ok {
		if n := m.cluster.Node(home); n != nil {
			if c := n.Container(id); c != nil {
				return c, n
			}
		}
	}
	return nil, nil
}

// serviceOfContainer maps a container ID back to its service, falling back
// to the "<service>-<idx>" naming convention when the container is already
// gone from the cluster.
func (m *Monitor) serviceOfContainer(id string) string {
	c, _ := m.findReplica(id)
	return serviceOf(id, c)
}

// serviceOf names the service of container id, resolved to c (nil when the
// container is gone): c's own service, else the "<service>-<idx>" prefix.
func serviceOf(id string, c *container.Container) string {
	if c != nil {
		return c.Service
	}
	if i := strings.LastIndex(id, "-"); i > 0 {
		return id[:i]
	}
	return id
}

// observe journals one action attempt with its outcome and the observed
// inputs from the snapshot that motivated it. createdID names the replica a
// successful scale-out started; target is the container a vertical or
// scale-in action resolved to (nil when it is gone), so the journal never
// looks it up again. No-op unless Obs is set.
func (m *Monitor) observe(a core.Action, now time.Duration, attempt int, outcome obs.Outcome, createdID string, target *container.Container) {
	if m.Obs == nil {
		return
	}
	d := obs.Decision{At: now, Attempt: attempt, Outcome: outcome}
	switch act := a.(type) {
	case core.VerticalScale:
		d.Kind = obs.KindVertical
		d.Container = act.ContainerID
		d.Alloc = act.NewAlloc
	case core.ScaleOut:
		d.Kind = obs.KindScaleOut
		d.Service = act.Service
		d.Node = act.NodeID
		d.Alloc = act.Alloc
		d.Container = createdID
	case core.ScaleIn:
		d.Kind = obs.KindScaleIn
		d.Container = act.ContainerID
	}
	if d.Kind != obs.KindScaleOut {
		d.Service = serviceOf(d.Container, target)
		if target != nil {
			d.Node = target.NodeID
		}
	}
	d.Observed = m.lastObs[d.Service]
	m.Obs.Decision(d)
}

// Apply executes a plan action-by-action. Actions against services under a
// decision hold (freshly readopted, see serviceState.holdPolls) are dropped:
// the algorithm decided off zero-usage stats for replicas placed this very
// period.
func (m *Monitor) Apply(plan core.Plan, now time.Duration) {
	for _, a := range plan.Actions {
		if m.held > 0 {
			if st := m.byName[m.actionService(a)]; st != nil && st.holdPolls > 0 {
				continue
			}
		}
		m.execute(pendingAction{action: a}, now)
	}
}

// actionService resolves the service an action targets.
func (m *Monitor) actionService(a core.Action) string {
	switch act := a.(type) {
	case core.ScaleOut:
		return act.Service
	case core.ScaleIn:
		return m.serviceOfContainer(act.ContainerID)
	case core.VerticalScale:
		return m.serviceOfContainer(act.ContainerID)
	}
	return ""
}

// actionsCut reports whether control actions towards nodeID are black-holed
// at now — by a node-keyed partition window or by the plane-installed
// zone-fault hook.
func (m *Monitor) actionsCut(now time.Duration, nodeID string) bool {
	return m.Faults.ActionBlackout(now, nodeID) ||
		(m.ActionsCut != nil && m.ActionsCut(now, nodeID))
}

// execute runs one attempt of a queued action; p.attempts counts prior
// executions. Faulted, black-holed or placement-failed attempts are requeued
// with backoff (when hardening is enabled) or abandoned.
func (m *Monitor) execute(p pendingAction, now time.Duration) {
	a := p.action
	switch act := a.(type) {
	case core.VerticalScale:
		c, _ := m.findReplica(act.ContainerID)
		if c == nil || c.State == container.StateRemoved {
			m.observe(a, now, p.attempts, obs.OutcomeMoot, "", c)
			return // target gone; the action is moot, not failed
		}
		nm := m.nmByID[c.NodeID]
		if nm == nil {
			m.observe(a, now, p.attempts, obs.OutcomeMoot, "", c)
			return
		}
		if m.actionsCut(now, c.NodeID) || m.Faults.VerticalFails(now, act.ContainerID) {
			m.observe(a, now, p.attempts, m.requeue(p, now), "", c)
			return
		}
		if err := nm.ApplyVertical(act.ContainerID, act.NewAlloc); err == nil {
			m.counts.Vertical++
			m.observe(a, now, p.attempts, obs.OutcomeApplied, "", c)
		} else {
			m.observe(a, now, p.attempts, obs.OutcomeRejected, "", c)
		}
	case core.ScaleOut:
		st, ok := m.byName[act.Service]
		if !ok {
			return
		}
		// A queued scale-out (retry or reconciler re-placement) may have
		// been overtaken by the algorithm's own fresh decisions; never push
		// past the replica ceiling.
		if (p.attempts > 0 || p.lostID != "") && m.ReplicaCount(act.Service) >= st.spec.MaxReplicas {
			if p.lostID != "" {
				// The ceiling already covers the lost capacity; treat the
				// original as superseded so a recovery drains it.
				m.finishLost(p.lostID)
			}
			m.observe(a, now, p.attempts, obs.OutcomeOvertaken, "", nil)
			return
		}
		// Reconciler re-placements carry no node: resolve against live
		// capacity at execution time, not at enqueue time.
		if act.NodeID == "" {
			act.NodeID = m.leastLoadedNode(act.Alloc)
			if act.NodeID == "" && m.OutOfCapacity != nil && m.OutOfCapacity(act.Alloc) {
				act.NodeID = m.leastLoadedNode(act.Alloc)
			}
			a = act
			if act.NodeID == "" {
				m.counts.PlacementFailures++
				m.observe(a, now, p.attempts, m.requeue(p, now), "", nil)
				return
			}
		}
		if m.actionsCut(now, act.NodeID) {
			m.observe(a, now, p.attempts, m.requeue(p, now), "", nil)
			return
		}
		key := fmt.Sprintf("%s/%d", act.Service, st.nextIdx)
		fail, slowBy := m.Faults.StartFault(now, key)
		if fail {
			m.observe(a, now, p.attempts, m.requeue(p, now), "", nil)
			return
		}
		err := m.startReplica(st, act.NodeID, act.Alloc, now, slowBy)
		if err != nil && p.attempts > 0 {
			// The originally chosen node filled up while the action waited;
			// fall back to the best currently fitting node.
			if alt := m.leastLoadedNode(act.Alloc); alt != "" && alt != act.NodeID {
				act.NodeID = alt
				a = act
				err = m.startReplica(st, alt, act.Alloc, now, slowBy)
			}
		}
		if err != nil && m.OutOfCapacity != nil && m.OutOfCapacity(act.Alloc) {
			if alt := m.leastLoadedNode(act.Alloc); alt != "" && alt != act.NodeID {
				act.NodeID = alt
				a = act
				err = m.startReplica(st, alt, act.Alloc, now, slowBy)
			}
		}
		if err != nil {
			m.counts.PlacementFailures++
			m.observe(a, now, p.attempts, m.requeue(p, now), "", nil)
		} else {
			created := st.replicaIDs[len(st.replicaIDs)-1]
			if p.lostID != "" {
				m.finishLost(p.lostID)
				m.recovery.Replaced++
				m.event(now, obs.EventReplicaReplaced, act.NodeID, act.Service, created, "replaces "+p.lostID)
			}
			m.observe(a, now, p.attempts, obs.OutcomeApplied, created, nil)
		}
	case core.ScaleIn:
		c, node := m.findReplica(act.ContainerID)
		if node == nil {
			m.observe(a, now, p.attempts, obs.OutcomeMoot, "", nil)
			return
		}
		if m.actionsCut(now, node.ID()) {
			m.observe(a, now, p.attempts, m.requeue(p, now), "", c)
			return
		}
		m.observe(a, now, p.attempts, obs.OutcomeApplied, "", c)
		m.removeFrom(node, act.ContainerID)
	}
}

// requeue schedules another attempt of a failed action with capped
// exponential backoff, returning OutcomeRequeued — or abandons it and
// returns OutcomeAbandoned when the budget is spent (or hardening is off).
// Reconcile tags (reconcileNode, lostID) survive the requeue, so a recovery
// can still cancel the re-placement mid-backoff.
func (m *Monitor) requeue(p pendingAction, now time.Duration) obs.Outcome {
	executed := p.attempts + 1
	if !m.Hardening.Enabled || executed >= m.Hardening.MaxAttempts {
		m.counts.AbandonedActions++
		return obs.OutcomeAbandoned
	}
	backoff := m.Hardening.RetryBackoffBase
	for i := 1; i < executed; i++ {
		backoff *= 2
		if backoff >= m.Hardening.RetryBackoffMax {
			backoff = m.Hardening.RetryBackoffMax
			break
		}
	}
	if backoff > m.Hardening.RetryBackoffMax {
		backoff = m.Hardening.RetryBackoffMax
	}
	p.attempts = executed
	p.notBefore = now + backoff
	m.retries = append(m.retries, p)
	return obs.OutcomeRequeued
}

func (m *Monitor) startReplica(st *serviceState, nodeID string, alloc resources.Vector, now time.Duration, slowBy time.Duration) error {
	// Stateful services pay the state-transfer time on top of the container
	// start latency (§IV-B's motivation for preferring vertical scaling);
	// injected slow starts stretch readiness further.
	return m.startReplicaWithReady(st, nodeID, alloc, now+m.StartDelay+st.spec.SyncDelay()+slowBy, false)
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
	st.replicaIDs = append(st.replicaIDs, id)
	m.replicaHome[id] = nodeID
	m.topoGen++
	m.counts.ScaleOuts++
	return nil
}

func (m *Monitor) removeReplica(containerID string) {
	if _, node := m.findReplica(containerID); node != nil {
		m.removeFrom(node, containerID)
	}
}

// removeFrom is removeReplica for a replica already resolved to its node.
func (m *Monitor) removeFrom(node *cluster.Node, containerID string) {
	killed := node.RemoveContainer(containerID)
	delete(m.replicaHome, containerID)
	m.counts.ScaleIns++
	if m.OnRemovalFailure != nil {
		for _, r := range killed {
			m.OnRemovalFailure(r)
		}
	}
}
