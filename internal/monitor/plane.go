// The control plane every World runs on. Nodes are partitioned into zones,
// each owned by a zone arbiter — a full Monitor running over a zone-local
// cluster view — and a thin global allocator (the Plane) sits above them
// handling service→zone assignment, cross-zone capacity leasing when a zone
// runs dry, and the merging of per-zone ledgers into the cluster-wide view
// experiments, obs and httpapi consume.
//
// One zone is the paper's single central Monitor: one arbiter over a view of
// every node, with no lease hook, no pre-poll starvation scan and no
// evacuation, so its decisions are exactly the unzoned Monitor's.
//
// Each arbiter polls only its own nodes and hands the scaling algorithm a
// zone-local snapshot, so the per-poll placement scan drops from O(services
// × nodes) to O(services × nodes / zones).
//
// Zones stay disjoint: a node belongs to exactly one arbiter at a time, so
// no machine is double-polled and every replica has exactly one owner.
// Cross-zone placement is therefore node leasing, not remote placement —
// when a zone is out of capacity the allocator moves an idle (container-free,
// detector-healthy) machine from the richest donor zone into the starved
// one. Determinism is preserved: zones are polled in index order and every
// scan is over deterministic slices.
package monitor

import (
	"fmt"
	"strconv"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/core"
	"hyscale/internal/faults"
	"hyscale/internal/obs"
	"hyscale/internal/resources"
	"hyscale/internal/workload"
)

// PlaneConfig parameterises the control plane and every arbiter in it.
// platform.Config embeds it, and platform.Config.Validate holds every rule on
// its fields.
type PlaneConfig struct {
	// StartDelay is container start latency for scale-outs.
	StartDelay time.Duration
	// HardeningOff disables the control plane's resilience mechanisms
	// (retry/backoff, stale-snapshot degradation, and the platform's LB
	// health checks) so experiments can measure what the hardening buys.
	HardeningOff bool
	// SelfHealing configures each arbiter's failure detector, desired-state
	// reconciler and checkpoint/restore. The zero value disables all three,
	// reproducing the legacy behaviour where node failures are reported
	// out-of-band and lost replicas are never re-placed.
	SelfHealing SelfHealing

	// Zones is the number of zone arbiters. 0 or 1 runs the single central
	// arbiter; more than the node count is rejected, since a zone with no
	// nodes could never host a service.
	Zones int
	// LeaseHeadroomCPU triggers proactive leasing: when a zone's best
	// single-node available CPU falls below this many cores before a poll,
	// the allocator moves one idle node in so the zone's algorithm still has
	// somewhere to scale out. Zero means the 1-core default.
	LeaseHeadroomCPU float64
	// Evacuate enables the disaster-recovery path: when every node of a zone
	// is ruled dead by its arbiter's failure detector, the allocator re-homes
	// the zone's services into surviving zones and lets the reconciler
	// re-place their lost replicas there. Requires self-healing (the detector
	// is the trigger); off, a dead zone's services stay down until it heals.
	Evacuate bool
	// SpilloverZones bounds how many zones one evacuated service may span
	// when no single surviving zone has capacity for all its replicas:
	// its home plus up to SpilloverZones-1 spill shards. Values ≤ 1 disable
	// spillover (the whole service lands in one zone, fit or not).
	SpilloverZones int
	// ReadoptAfter is the anti-flap cooldown before an evacuated service
	// migrates home: the healed zone must stay fully healthy this long
	// first. Zero means the 30 s default.
	ReadoptAfter time.Duration
}

func (c PlaneConfig) headroom() resources.Vector {
	h := c.LeaseHeadroomCPU
	if h <= 0 {
		h = 1
	}
	return resources.Vector{CPU: h}
}

func (c PlaneConfig) readoptAfter() time.Duration {
	if c.ReadoptAfter > 0 {
		return c.ReadoptAfter
	}
	return 30 * time.Second
}

// CrossZoneCounts tallies the global allocator's activity.
type CrossZoneCounts struct {
	// NodeLeases counts idle machines moved between zones.
	NodeLeases uint64 `json:"nodeLeases"`
	// LeaseFailures counts lease attempts that found no movable machine.
	LeaseFailures uint64 `json:"leaseFailures"`
}

// ZoneSummary is one zone's merged view, for per-zone metrics and the
// hyscale-sim summary lines.
type ZoneSummary struct {
	Zone           int            `json:"zone"`
	Nodes          int            `json:"nodes"`
	Services       int            `json:"services"`
	Replicas       int            `json:"replicas"`
	Counts         ActionCounts   `json:"counts"`
	Recovery       RecoveryCounts `json:"recovery"`
	PendingRetries int            `json:"pendingRetries"`
	// LeaseFailures counts lease attempts this zone initiated that found no
	// movable machine anywhere (the per-zone attribution of the global
	// CrossZoneCounts.LeaseFailures).
	LeaseFailures uint64 `json:"leaseFailures"`
	// Evacuated marks a zone currently ruled down by the evacuation state
	// machine (its services re-homed into surviving zones).
	Evacuated bool `json:"evacuated,omitempty"`
}

// zoneArbiter couples one zone with the Monitor that owns it. The zone's
// nodes are the Monitor's cluster view; its home services and spillover
// shards (see evac.go) are the Monitor's non-guest and guest services.
type zoneArbiter struct {
	idx  int
	name string // decimal zone index, the target key of zone fault windows
	mon  *Monitor

	// leaseFailures counts failed lease attempts initiated on this zone's
	// behalf.
	leaseFailures uint64

	// down / healthyAt drive the evacuation ⇄ re-adoption state machine:
	// down is set when the zone is evacuated, healthyAt records when the
	// zone was last observed transitioning to fully healthy (-1 = not
	// currently healthy).
	down      bool
	healthyAt time.Duration
}

// Plane is the two-level control plane: zone arbiters below, the global
// allocator above (a no-op at one zone). Single-goroutine like everything
// else in the simulator.
type Plane struct {
	global *cluster.Cluster
	cfg    PlaneConfig
	algo   core.Algorithm

	zones      []*zoneArbiter
	zoneOfNode map[string]int
	// viewOf is indexed by cluster.Node.Ord: 1 + the zone whose view holds
	// that node, 0 when no view does. Node ordinals are unique among the
	// nodes of the plane's cluster, so this is the one per-node table of the
	// plane, and the arbiters test view membership and find a node's zone
	// through it without a lookup by ID.
	viewOf []int32

	// services is the service table, indexed by registration ordinal
	// (Request.ServiceOrd): where each service lives. Evacuation, spillover
	// and readoption edit entries in place. ordOf resolves a name to its
	// ordinal, read only by the by-name methods, where a name enters.
	services []planeService
	ordOf    map[string]int

	// zoneFaults is the fault injector when it has zone-outage or
	// zone-partition windows, nil otherwise, so arbiters skip the node→zone
	// lookup when no zone can fail.
	zoneFaults *faults.Injector

	cross CrossZoneCounts
	evac  EvacCounts
}

// NewPlane partitions the cluster's nodes into contiguous zones and builds
// one arbiter per zone; Zones <= 1 builds the single central arbiter. Every
// arbiter gets cfg's start delay, hardening and self-healing, the fault
// injector inj, the decision journal (nil journals nothing) and onRemoval,
// which receives every in-flight request a scale-in kills (nil allowed).
// The algorithm instance is shared by all arbiters: every algorithm keys
// its per-service state by the service's registration ordinal
// (core.ServiceInfo.Ord), services are assigned to exactly one zone, and
// zones decide sequentially, so no state crosses zone boundaries; one
// planning round serves them all. For the same reason the arbiters share
// one poll scratch, whose ordinal tables are sized to the whole plane once
// instead of once per zone.
func NewPlane(cl *cluster.Cluster, algo core.Algorithm, cfg PlaneConfig, inj *faults.Injector, journal *obs.Journal, onRemoval func(*workload.Request)) (*Plane, error) {
	nodes := cl.Nodes()
	k := min(cfg.Zones, len(nodes))
	if k <= 1 {
		// Nothing to lease from or evacuate to.
		k, cfg.Evacuate = 1, false
	}
	p := &Plane{
		global:     cl,
		cfg:        cfg,
		algo:       algo,
		zoneOfNode: make(map[string]int, len(nodes)),
		ordOf:      make(map[string]int),
	}
	if inj.HasZoneWindows() {
		p.zoneFaults = inj
	}
	scratch := &pollScratch{}
	for z := 0; z < k; z++ {
		view, err := cluster.New()
		if err != nil {
			return nil, err
		}
		lo, hi := z*len(nodes)/k, (z+1)*len(nodes)/k
		mon := &Monitor{
			cluster: view, algo: algo, plane: p, zone: z, scratch: scratch,
			startDelay: cfg.StartDelay, hardeningOff: cfg.HardeningOff, selfHeal: cfg.SelfHealing,
			faults: inj, journal: journal, onRemoval: onRemoval,
			nodeByID: make(map[string]int, hi-lo),
			nodes:    make([]nodeEntry, 0, hi-lo),
			seenGen:  make(map[string]uint64),
		}
		za := &zoneArbiter{idx: z, name: strconv.Itoa(z), mon: mon, healthyAt: -1}
		p.zones = append(p.zones, za)
		for _, n := range nodes[lo:hi] {
			if err := p.adopt(za, n); err != nil {
				return nil, err
			}
			mon.AttachNode(n)
		}
	}
	return p, nil
}

// adopt adds n to z's view.
func (p *Plane) adopt(z *zoneArbiter, n *cluster.Node) error {
	if err := z.mon.cluster.AdoptNode(n); err != nil {
		return err
	}
	if o := n.Ord(); o >= len(p.viewOf) {
		p.viewOf = append(p.viewOf, make([]int32, o+1-len(p.viewOf))...)
	}
	p.viewOf[n.Ord()] = int32(z.idx + 1)
	p.zoneOfNode[n.ID()] = z.idx
	return nil
}

// release drops the node nodeID from z's view, if the view holds it. The
// node keeps its zone in zoneOfNode.
func (p *Plane) release(z *zoneArbiter, nodeID string) {
	if n := z.mon.cluster.ReleaseNode(nodeID); n != nil {
		p.viewOf[n.Ord()] = 0
	}
}

// viewZone returns the zone whose view holds n, -1 when none does.
func (p *Plane) viewZone(n *cluster.Node) int {
	if o := n.Ord(); o < len(p.viewOf) {
		return int(p.viewOf[o]) - 1
	}
	return -1
}

// zoneStatsCut reports whether a zone-outage or zone-partition window cuts
// the stats answers of zone zi's nodes at now. The windows are keyed by zone
// index. False without zone windows.
func (p *Plane) zoneStatsCut(now time.Duration, zi int) bool {
	return p.zoneFaults != nil && p.zoneFaults.ZoneStatsCut(now, p.zones[zi].name)
}

// actionsCut reports whether a zone-outage or zone-partition window cuts
// control actions towards the node nodeID at now. A node answers for
// whichever zone it is in now: a retried action can name a node since
// leased to another zone. The zone is that of the view holding node, or,
// when no view holds it or node is nil, the last one the ID joined. False
// without zone windows.
func (p *Plane) actionsCut(now time.Duration, node *cluster.Node, nodeID string) bool {
	if p.zoneFaults == nil {
		return false
	}
	zi := -1
	if node != nil {
		zi = p.viewZone(node)
	}
	if zi < 0 {
		z, ok := p.zoneOfNode[nodeID]
		if !ok {
			return false
		}
		zi = z
	}
	return p.zoneFaults.ZoneActionsCut(now, p.zones[zi].name)
}

// homeServices counts the services homed in the zone, spillover shards
// excluded.
func (z *zoneArbiter) homeServices() int {
	n := 0
	for _, st := range z.mon.services {
		if !st.guest {
			n++
		}
	}
	return n
}

// states returns the zone's home service states (guest false) or its
// spillover shards (guest true) in list order. The slice is a copy, so
// callers may move services while ranging over it.
func (z *zoneArbiter) states(guest bool) []*serviceState {
	var out []*serviceState
	for _, st := range z.mon.services {
		if st.guest == guest {
			out = append(out, st)
		}
	}
	return out
}

// Cross returns the global allocator's cumulative counters.
func (p *Plane) Cross() CrossZoneCounts { return p.cross }

// ZoneSummaries returns each zone's merged view in zone order, nil for the
// single central arbiter.
func (p *Plane) ZoneSummaries() []ZoneSummary {
	if len(p.zones) == 1 {
		return nil
	}
	out := make([]ZoneSummary, len(p.zones))
	for i, z := range p.zones {
		s := ZoneSummary{
			Zone:           z.idx,
			Nodes:          len(z.mon.cluster.Nodes()),
			Services:       z.homeServices(),
			Counts:         z.mon.Counts(),
			Recovery:       z.mon.Recovery(),
			PendingRetries: z.mon.PendingRetries(),
			LeaseFailures:  z.leaseFailures,
			Evacuated:      z.down,
		}
		for _, st := range z.mon.services {
			s.Replicas += z.mon.liveReplicas(st)
		}
		out[i] = s
	}
	return out
}

// Evac returns the evacuation / re-adoption counters, nil when the plane
// does not evacuate (one zone, or PlaneConfig.Evacuate off).
func (p *Plane) Evac() *EvacCounts {
	if !p.cfg.Evacuate {
		return nil
	}
	ec := p.evac
	return &ec
}

// planeService is one service's entry in the plane's table.
type planeService struct {
	name string
	// home is the arbiter holding st, the service's decision state. st
	// stays the same object for the service's lifetime: evacuation and
	// readoption move it between arbiters.
	home *zoneArbiter
	st   *serviceState
	// spills lists the service's spillover shards beyond its home, in zone
	// order (see evac.go).
	spills []shard
	// origin is the zone the service was first evacuated from, nil when it
	// is not evacuated; it migrates back when that zone heals.
	origin *zoneArbiter
}

// shard is one spillover shard: a guest state in another zone's arbiter.
type shard struct {
	za *zoneArbiter
	st *serviceState
}

// AddService assigns the service to the zone with the fewest services
// (lowest index on ties — round-robin for uniform registration) and
// registers it with that zone's arbiter under the next ordinal.
func (p *Plane) AddService(spec workload.ServiceSpec, targetUtil float64) error {
	if _, dup := p.ordOf[spec.Name]; dup {
		return fmt.Errorf("monitor: duplicate service %q", spec.Name)
	}
	best := 0
	for i := 1; i < len(p.zones); i++ {
		if p.zones[i].homeServices() < p.zones[best].homeServices() {
			best = i
		}
	}
	st, err := p.zones[best].mon.addService(spec, targetUtil, len(p.services))
	if err != nil {
		return err
	}
	p.ordOf[spec.Name] = st.info.Ord
	p.services = append(p.services, planeService{name: spec.Name, home: p.zones[best], st: st})
	return nil
}

// ServiceCount returns how many services are registered. Services are
// numbered in registration order from 0; the methods that take an ordinal
// take that number.
func (p *Plane) ServiceCount() int { return len(p.services) }

// Registered reports whether a service of that name was ever registered.
func (p *Plane) Registered(service string) bool {
	_, ok := p.ordOf[service]
	return ok
}

// RouteView returns the replicas of service ord for routing one request,
// without copying them.
//
// For a service whose replicas all live in its home arbiter, the result
// aliases that arbiter's replica list: it is valid only until the next
// placement, removal or poll, it includes replicas whose container vanished
// with its node and reads StateRemoved (callers must skip them, as the
// balancer does), and it must never be assigned to a buffer that is later
// appended into. A spilled service's replicas are appended into *scratch
// instead, which the caller owns and keeps.
func (p *Plane) RouteView(ord int, scratch *[]*container.Container) []*container.Container {
	e := &p.services[ord]
	if len(e.spills) == 0 {
		return e.st.replicas
	}
	*scratch = p.AppendReplicas((*scratch)[:0], ord)
	return *scratch
}

// DeployInitial deploys service ord's minimum replicas in its home zone; a
// full home zone leases capacity through the plane.
func (p *Plane) DeployInitial(ord int, now time.Duration) error {
	e := &p.services[ord]
	return e.home.mon.deployInitial(e.st, now)
}

// StartReplica starts a replica of the service pinned to a node of its home
// zone: zones own their machines exclusively, so a cross-zone pin would
// create a replica its owner cannot poll. An unknown node is the arbiter's
// to reject.
func (p *Plane) StartReplica(service, nodeID string, alloc resources.Vector, now time.Duration) error {
	ord, ok := p.ordOf[service]
	if !ok {
		return fmt.Errorf("monitor: unknown service %q", service)
	}
	e := &p.services[ord]
	if z, ok := p.zoneOfNode[nodeID]; ok && z != e.home.idx {
		return fmt.Errorf("monitor: node %q is not in service %q's zone %d", nodeID, service, e.home.idx)
	}
	return e.home.mon.startReplica(e.st, nodeID, alloc, now, 0)
}

// Scale sets a service's replica count by hand. Each new replica is a
// scale-out of the home arbiter, placed when it executes on the home zone's
// emptiest fitting node (leasing one when none fits), with the allocation
// of the service's first live replica, or its initial allocation when it
// has none. Surplus replicas are removed newest first, spill shards before
// the home. Both go through the arbiters' action path, so faults, retries,
// the journal and the counters treat them as any other scaling action. It
// fails, starting and removing nothing, for an unregistered name, for a
// count above the service's MaxReplicas, and when no node fits the first
// new replica.
func (p *Plane) Scale(service string, replicas int, now time.Duration) error {
	ord, ok := p.ordOf[service]
	if !ok {
		return fmt.Errorf("monitor: unknown service %q", service)
	}
	e := &p.services[ord]
	if limit := e.st.spec.MaxReplicas; replicas > limit {
		return fmt.Errorf("monitor: %d replicas of %q exceed its maxReplicas %d", replicas, service, limit)
	}
	// The live replicas in Replicas' order, each with the arbiter owning it.
	type owned struct {
		mon *Monitor
		r   replica
	}
	var reps []owned
	for _, sh := range append([]shard{{za: e.home, st: e.st}}, e.spills...) {
		for k, c := range sh.st.replicas {
			if c.State != container.StateRemoved {
				reps = append(reps, owned{sh.za.mon, replica{c: c, node: sh.st.hosts[k]}})
			}
		}
	}
	alloc := e.st.info.InitialAlloc
	if len(reps) > 0 {
		alloc = reps[0].r.c.Alloc
	}
	if replicas > len(reps) && e.home.mon.place(alloc) == "" {
		return fmt.Errorf("monitor: no node fits a new replica of %q", service)
	}
	for i := len(reps); i < replicas; i++ {
		e.home.mon.execute(pendingAction{action: core.StartOn(ord, "", alloc)}, now, nil)
	}
	for i := len(reps) - 1; i >= replicas; i-- {
		a := core.Remove(reps[i].r.c.ID)
		a.Svc = int32(ord + 1)
		reps[i].mon.execute(pendingAction{action: a, target: reps[i].r}, now, nil)
	}
	return nil
}

// Sample forwards a stats-sampling tick to every zone's node managers.
func (p *Plane) Sample() {
	for _, z := range p.zones {
		z.mon.Sample()
	}
}

// Poll runs one monitoring period across all zones in index order. Before a
// zone decides, the allocator tops up its headroom: algorithms silently skip
// scale-outs when no local node fits, so a starved zone must receive an idle
// machine before Decide runs, not after. One zone has no donor, so it skips
// the scan.
func (p *Plane) Poll(now time.Duration) {
	if p.cfg.Evacuate {
		p.evacTick(now)
	}
	lease := len(p.zones) > 1
	for _, z := range p.zones {
		if lease && z.homeServices() > 0 && p.starved(z) {
			p.leaseInto(z.idx, p.cfg.headroom())
		}
		z.mon.Poll(now)
	}
}

// healthyNodes counts the zone's nodes with a clean detector record.
func (p *Plane) healthyNodes(z *zoneArbiter) int {
	n := 0
	for _, node := range z.mon.cluster.Nodes() {
		if z.mon.nodeClean(node.ID()) {
			n++
		}
	}
	return n
}

// starved reports whether no node in the zone has at least the configured
// headroom free (dead nodes excluded).
func (p *Plane) starved(z *zoneArbiter) bool {
	need := p.cfg.headroom()
	for _, n := range z.mon.cluster.Nodes() {
		if z.mon.nodeDead(n.ID()) {
			continue
		}
		if need.FitsIn(n.Available()) {
			return false
		}
	}
	return true
}

// leaseInto moves one idle machine into the starved zone: the donor scan
// picks, across all other zones, the container-free detector-healthy node
// with the most available CPU that fits alloc (first such node on ties, in
// zone/node order), provided its donor keeps at least one *healthy* machine
// afterwards — a donor whose only other nodes are dead or suspect must not
// be drained down to them. Returns whether a machine moved.
func (p *Plane) leaseInto(zi int, alloc resources.Vector) bool {
	var donor *zoneArbiter
	var pick *cluster.Node
	for _, z := range p.zones {
		if z.idx == zi || p.healthyNodes(z) < 2 {
			continue
		}
		for _, n := range z.mon.cluster.Nodes() {
			if len(n.Containers()) != 0 {
				continue
			}
			if !z.mon.nodeClean(n.ID()) {
				// Unreachable machines don't move: the borrower would inherit
				// a node its fresh detector state knows nothing about.
				continue
			}
			if !alloc.FitsIn(n.Available()) {
				continue
			}
			if pick == nil || n.Available().CPU > pick.Available().CPU {
				donor, pick = z, n
			}
		}
	}
	if pick == nil {
		p.cross.LeaseFailures++
		p.zones[zi].leaseFailures++
		return false
	}
	id := pick.ID()
	p.release(donor, id)
	donor.mon.DetachNode(id)
	borrower := p.zones[zi]
	if err := p.adopt(borrower, pick); err != nil {
		return false // unreachable: zones are disjoint
	}
	borrower.mon.AttachNode(pick)
	p.cross.NodeLeases++
	return true
}

// MaybeCheckpoint forwards to every arbiter: the control plane crashes and
// checkpoints as a unit.
func (p *Plane) MaybeCheckpoint(now time.Duration) {
	for _, z := range p.zones {
		z.mon.MaybeCheckpoint(now)
	}
}

// Restart restarts every arbiter after a control-plane crash window, each
// from its own checkpoint (or cold).
func (p *Plane) Restart(now time.Duration) {
	for _, z := range p.zones {
		z.mon.Restart(now)
	}
}

// Replicas returns a service's live replicas: its home arbiter's, then
// its spillover shards' in zone order. Nil for an unregistered name.
func (p *Plane) Replicas(service string) []*container.Container {
	ord, ok := p.ordOf[service]
	if !ok {
		return nil
	}
	return p.AppendReplicas(nil, ord)
}

// AppendReplicas appends service ord's live replicas to buf, in Replicas'
// order.
func (p *Plane) AppendReplicas(buf []*container.Container, ord int) []*container.Container {
	e := &p.services[ord]
	buf = e.home.mon.appendLive(buf, e.st)
	for _, sh := range e.spills {
		buf = sh.za.mon.appendLive(buf, sh.st)
	}
	return buf
}

// ReplicaCount returns a service's live replica count across its home
// arbiter and any spillover shards; 0 for an unregistered name.
func (p *Plane) ReplicaCount(service string) int {
	ord, ok := p.ordOf[service]
	if !ok {
		return 0
	}
	e := &p.services[ord]
	n := e.home.mon.liveReplicas(e.st)
	for _, sh := range e.spills {
		n += sh.za.mon.liveReplicas(sh.st)
	}
	return n
}

// Counts returns the action counters summed across all zone arbiters.
func (p *Plane) Counts() ActionCounts {
	var out ActionCounts
	for _, z := range p.zones {
		c := z.mon.Counts()
		out.Vertical += c.Vertical
		out.ScaleOuts += c.ScaleOuts
		out.ScaleIns += c.ScaleIns
		out.PlacementFailures += c.PlacementFailures
		out.Retries += c.Retries
		out.AbandonedActions += c.AbandonedActions
		out.StaleSnapshots += c.StaleSnapshots
	}
	return out
}

// Recovery returns the self-healing counters summed across all arbiters.
func (p *Plane) Recovery() RecoveryCounts {
	var out RecoveryCounts
	for _, z := range p.zones {
		r := z.mon.Recovery()
		out.Suspected += r.Suspected
		out.DeclaredDead += r.DeclaredDead
		out.Recovered += r.Recovered
		out.ReplicasLost += r.ReplicasLost
		out.Replaced += r.Replaced
		out.Readopted += r.Readopted
		out.StaleDrained += r.StaleDrained
		out.ReconcileCancelled += r.ReconcileCancelled
		out.CheckpointRestores += r.CheckpointRestores
		out.ColdRestarts += r.ColdRestarts
	}
	return out
}

// NodeConditions concatenates every zone's detector view in zone order.
func (p *Plane) NodeConditions() []NodeCondition {
	var out []NodeCondition
	for _, z := range p.zones {
		out = append(out, z.mon.NodeConditions()...)
	}
	return out
}

// PendingRetries sums the retry-queue depth across all arbiters.
func (p *Plane) PendingRetries() int {
	n := 0
	for _, z := range p.zones {
		n += z.mon.PendingRetries()
	}
	return n
}

// Algorithm returns the shared scaling algorithm.
func (p *Plane) Algorithm() core.Algorithm { return p.algo }

// DetachNode drops a machine from its zone's view and arbiter — the
// out-of-band failure notification used when self-healing is off.
func (p *Plane) DetachNode(nodeID string) {
	z, ok := p.zoneOfNode[nodeID]
	if !ok {
		return
	}
	p.release(p.zones[z], nodeID) // a no-op when NoteNodeRemoved already ran
	p.zones[z].mon.DetachNode(nodeID)
	delete(p.zoneOfNode, nodeID)
}

// AttachNode assigns a newly added machine to the zone with the fewest nodes
// (lowest index on ties) and registers it with that zone's arbiter. A
// machine re-added under the ID of one that failed while its arbiter still
// tracks it rejoins that zone's view, as it rejoins the physical cluster,
// and the arbiter's manager for that ID queries the new machine from then
// on.
func (p *Plane) AttachNode(n *cluster.Node) {
	best, known := p.zoneOfNode[n.ID()]
	if known {
		if p.zones[best].mon.cluster.Node(n.ID()) != nil {
			return
		}
	} else {
		for i := 1; i < len(p.zones); i++ {
			if len(p.zones[i].mon.cluster.Nodes()) < len(p.zones[best].mon.cluster.Nodes()) {
				best = i
			}
		}
	}
	if err := p.adopt(p.zones[best], n); err != nil {
		return
	}
	p.zones[best].mon.AttachNode(n)
}

// NoteNodeRemoved mirrors a machine's physical removal into its zone view
// WITHOUT detaching it from the arbiter: the zone's failure detector must
// discover the death through missed polls, exactly as the single monitor
// does when the platform removes a node under self-healing.
func (p *Plane) NoteNodeRemoved(nodeID string) {
	if z, ok := p.zoneOfNode[nodeID]; ok {
		p.release(p.zones[z], nodeID)
	}
}
