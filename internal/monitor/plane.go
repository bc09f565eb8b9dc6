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
	"hyscale/internal/resources"
	"hyscale/internal/workload"
)

// PlaneConfig parameterises the zoned control plane. platform.Config embeds
// it, and platform.Config.Validate holds every rule on its fields.
type PlaneConfig struct {
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

// zoneArbiter couples one zone's cluster view with the Monitor that owns it.
type zoneArbiter struct {
	idx      int
	name     string // decimal zone index, the target key of zone fault windows
	view     *cluster.Cluster
	mon      *Monitor
	services []string
	// guests lists services whose home is another zone but which keep a
	// bounded spillover shard of replicas here (see evac.go).
	guests []string

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

	zones         []*zoneArbiter
	zoneOfNode    map[string]int
	zoneOfService map[string]int

	// evacHome remembers an evacuated service's original zone, so it
	// migrates home when that zone heals; spills lists the zones holding a
	// service's spillover shards beyond its (current) home.
	evacHome map[string]int
	spills   map[string][]int

	// routes holds one route slot per service, indexed by registration
	// ordinal (see RouteView). gen versions service placement, and a slot
	// resolved at an older gen re-resolves on its next use. A new service's
	// slot starts unresolved (gen 0). After registration only evacuateZone
	// and readoptZone change zoneOfService, spills or an arbiter's byName —
	// spill shards and guests come and go inside them — so they are the two
	// places that move gen.
	routes []routeSlot
	gen    uint64

	cross CrossZoneCounts
	evac  EvacCounts
}

// NewPlane partitions the cluster's nodes into contiguous zones and builds
// one arbiter per zone; Zones <= 1 builds the single central arbiter. The
// algorithm instance is shared by all arbiters: every algorithm in
// internal/core keys its state per service name, services are assigned to
// exactly one zone, and zones decide sequentially, so no state crosses zone
// boundaries.
func NewPlane(cl *cluster.Cluster, algo core.Algorithm, cfg PlaneConfig) (*Plane, error) {
	nodes := cl.Nodes()
	k := min(cfg.Zones, len(nodes))
	if k <= 1 {
		// Nothing to lease from or evacuate to.
		k, cfg.Evacuate = 1, false
	}
	p := &Plane{
		global:        cl,
		cfg:           cfg,
		algo:          algo,
		zoneOfNode:    make(map[string]int, len(nodes)),
		zoneOfService: make(map[string]int),
		evacHome:      make(map[string]int),
		spills:        make(map[string][]int),
		gen:           1, // above the zero gen of an unresolved route slot
	}
	for z := 0; z < k; z++ {
		view, err := cluster.New()
		if err != nil {
			return nil, err
		}
		lo, hi := z*len(nodes)/k, (z+1)*len(nodes)/k
		for _, n := range nodes[lo:hi] {
			if err := view.AdoptNode(n); err != nil {
				return nil, err
			}
			p.zoneOfNode[n.ID()] = z
		}
		za := &zoneArbiter{
			idx: z, name: strconv.Itoa(z), view: view, mon: New(view, algo),
			healthyAt: -1,
		}
		if k > 1 {
			zi := z
			za.mon.OutOfCapacity = func(alloc resources.Vector) bool {
				return p.leaseInto(zi, alloc)
			}
		}
		p.zones = append(p.zones, za)
	}
	return p, nil
}

// InstallZoneFaults wires zone-outage / zone-partition windows into every
// arbiter: the injector is keyed by zone index, which only the plane's node→
// zone map can resolve, and a leased node answers for whichever zone it is in
// *now*. No-op (hooks stay nil, hot path untouched) when the config has no
// zone windows.
func (p *Plane) InstallZoneFaults(inj *faults.Injector) {
	if !inj.HasZoneWindows() {
		return
	}
	stats := func(now time.Duration, nodeID string) bool {
		zi, ok := p.zoneOfNode[nodeID]
		return ok && inj.ZoneStatsCut(now, p.zones[zi].name)
	}
	actions := func(now time.Duration, nodeID string) bool {
		zi, ok := p.zoneOfNode[nodeID]
		return ok && inj.ZoneActionsCut(now, p.zones[zi].name)
	}
	for _, z := range p.zones {
		z.mon.StatsCut = stats
		z.mon.ActionsCut = actions
	}
}

// Arbiters returns the zone monitors in zone order, so the platform can
// apply shared configuration (faults, hardening, self-healing, obs) and
// tests can inspect per-zone ledgers.
func (p *Plane) Arbiters() []*Monitor {
	out := make([]*Monitor, len(p.zones))
	for i, z := range p.zones {
		out[i] = z.mon
	}
	return out
}

// ZoneOfService returns the zone a service was assigned to, or -1.
func (p *Plane) ZoneOfService(name string) int {
	if z, ok := p.zoneOfService[name]; ok {
		return z
	}
	return -1
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
			Nodes:          len(z.view.Nodes()),
			Services:       len(z.services),
			Counts:         z.mon.Counts(),
			Recovery:       z.mon.Recovery(),
			PendingRetries: z.mon.PendingRetries(),
			LeaseFailures:  z.leaseFailures,
			Evacuated:      z.down,
		}
		for _, name := range z.services {
			s.Replicas += z.mon.ReplicaCount(name)
		}
		for _, name := range z.guests {
			s.Replicas += z.mon.ReplicaCount(name)
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

// home returns the arbiter owning a service, or nil. The single central
// arbiter owns every service, so one zone skips the map lookup.
func (p *Plane) home(service string) *zoneArbiter {
	if len(p.zones) == 1 {
		return p.zones[0]
	}
	z, ok := p.zoneOfService[service]
	if !ok {
		return nil
	}
	return p.zones[z]
}

// AddService assigns the service to the zone with the fewest services
// (lowest index on ties — round-robin for uniform registration) and
// registers it with that zone's arbiter.
func (p *Plane) AddService(spec workload.ServiceSpec, targetUtil float64) error {
	if _, dup := p.zoneOfService[spec.Name]; dup {
		return fmt.Errorf("monitor: duplicate service %q", spec.Name)
	}
	best := 0
	for i := 1; i < len(p.zones); i++ {
		if len(p.zones[i].services) < len(p.zones[best].services) {
			best = i
		}
	}
	za := p.zones[best]
	if err := za.mon.AddService(spec, targetUtil); err != nil {
		return err
	}
	za.services = append(za.services, spec.Name)
	p.zoneOfService[spec.Name] = best
	p.routes = append(p.routes, routeSlot{name: spec.Name})
	return nil
}

// routeSlot caches where one service's replicas live: its home arbiter and
// that arbiter's serviceState, as of plane generation gen. spilled marks a
// service with spillover shards, whose replicas span several arbiters.
type routeSlot struct {
	name    string
	gen     uint64
	mon     *Monitor
	st      *serviceState
	spilled bool
}

// ServiceCount returns how many services are registered. Services are
// numbered in registration order from 0; RouteView takes that ordinal.
func (p *Plane) ServiceCount() int { return len(p.routes) }

// RouteView returns the replicas of service ord (its registration ordinal)
// for routing one request, without copying them.
//
// For a service whose replicas all live in its home arbiter, the result
// aliases that arbiter's resolved replica cache: it is valid only until the
// next topology change, it includes replicas a scale-in already flipped to
// StateRemoved (callers must skip them, as the balancer does), and it must
// never be assigned to a buffer that is later appended into. A spilled
// service's replicas are appended into *scratch instead, which the caller
// owns and keeps.
func (p *Plane) RouteView(ord int, scratch *[]*container.Container) []*container.Container {
	rs := &p.routes[ord]
	if rs.gen != p.gen {
		rs.gen, rs.mon, rs.st = p.gen, nil, nil
		rs.spilled = len(p.spills[rs.name]) > 0
		if za := p.home(rs.name); za != nil {
			rs.mon, rs.st = za.mon, za.mon.byName[rs.name]
		}
	}
	if rs.st == nil || rs.spilled {
		*scratch = p.AppendReplicas((*scratch)[:0], rs.name)
		return *scratch
	}
	return rs.mon.resolvedFor(rs.st)
}

// DeployInitial forwards to the service's home arbiter; a full home zone
// leases capacity through the arbiter's OutOfCapacity hook.
func (p *Plane) DeployInitial(service string, now time.Duration) error {
	za := p.home(service)
	if za == nil {
		return fmt.Errorf("monitor: unknown service %q", service)
	}
	return za.mon.DeployInitial(service, now)
}

// StartReplica forwards a pinned placement to the service's home arbiter.
// The pinned node must live in the home zone: zones own their machines
// exclusively, so a cross-zone pin would create a replica its owner cannot
// poll. An unknown node is the arbiter's to reject.
func (p *Plane) StartReplica(service, nodeID string, alloc resources.Vector, now time.Duration) error {
	za := p.home(service)
	if za == nil {
		return fmt.Errorf("monitor: unknown service %q", service)
	}
	if z, ok := p.zoneOfNode[nodeID]; ok && z != za.idx {
		return fmt.Errorf("monitor: node %q is not in service %q's zone %d", nodeID, service, za.idx)
	}
	return za.mon.StartReplica(service, nodeID, alloc, now)
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
		if lease && len(z.services) > 0 && p.starved(z) {
			p.leaseInto(z.idx, p.cfg.headroom())
		}
		z.mon.Poll(now)
	}
}

// healthyNodes counts the zone's nodes with a clean detector record (never
// missed a poll, ruled healthy).
func (p *Plane) healthyNodes(z *zoneArbiter) int {
	n := 0
	for _, node := range z.view.Nodes() {
		if st := z.mon.nodeStates[node.ID()]; st == nil || (st.missed == 0 && st.health == NodeHealthy) {
			n++
		}
	}
	return n
}

// starved reports whether no node in the zone has at least the configured
// headroom free (dead nodes excluded).
func (p *Plane) starved(z *zoneArbiter) bool {
	need := p.cfg.headroom()
	for _, n := range z.view.Nodes() {
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
		for _, n := range z.view.Nodes() {
			if len(n.Containers()) != 0 {
				continue
			}
			if st := z.mon.nodeStates[n.ID()]; st != nil && (st.missed > 0 || st.health != NodeHealthy) {
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
	donor.view.ReleaseNode(id)
	donor.mon.DetachNode(id)
	borrower := p.zones[zi]
	if err := borrower.view.AdoptNode(pick); err != nil {
		return false // unreachable: zones are disjoint
	}
	borrower.mon.AttachNode(pick)
	p.zoneOfNode[id] = zi
	p.cross.NodeLeases++
	return true
}

// Apply routes a plan's actions: scale-outs to the service's home arbiter,
// container-addressed actions to the zone whose view holds the container.
// An action no arbiter owns (unknown service or container) goes to zone 0,
// which journals it as moot exactly as the single Monitor does. Used by the
// manual-scale HTTP endpoint; the periodic loop never crosses this path
// (each arbiter applies its own plans inside Poll).
func (p *Plane) Apply(plan core.Plan, now time.Duration) {
	for _, a := range plan.Actions {
		var za *zoneArbiter
		switch act := a.(type) {
		case core.ScaleOut:
			za = p.home(act.Service)
		case core.VerticalScale:
			za = p.owner(act.ContainerID)
		case core.ScaleIn:
			za = p.owner(act.ContainerID)
		}
		if za == nil {
			za = p.zones[0]
		}
		za.mon.Apply(core.Plan{Actions: []core.Action{a}}, now)
	}
}

// owner returns the arbiter whose view holds the container, or nil. A node
// sits in exactly one view, so the first arbiter whose replica index resolves
// the container owns it: O(zones) on a hit. Only a container no arbiter has
// indexed costs the per-view scan.
func (p *Plane) owner(containerID string) *zoneArbiter {
	for _, z := range p.zones {
		if c, _ := z.mon.indexedReplica(containerID); c != nil {
			return z
		}
	}
	for _, z := range p.zones {
		if c, _ := z.mon.findReplica(containerID); c != nil {
			return z
		}
	}
	return nil
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

// Replicas returns a service's live replicas from its home arbiter.
func (p *Plane) Replicas(service string) []*container.Container {
	return p.AppendReplicas(nil, service)
}

// AppendReplicas appends a service's live replicas from its home arbiter,
// followed by any spillover shards in zone order.
func (p *Plane) AppendReplicas(buf []*container.Container, service string) []*container.Container {
	za := p.home(service)
	if za == nil {
		return buf
	}
	buf = za.mon.AppendReplicas(buf, service)
	if len(p.spills) == 0 {
		return buf
	}
	for _, zi := range p.spills[service] {
		buf = p.zones[zi].mon.AppendReplicas(buf, service)
	}
	return buf
}

// ReplicaCount returns a service's live replica count across its home
// arbiter and any spillover shards.
func (p *Plane) ReplicaCount(service string) int {
	za := p.home(service)
	if za == nil {
		return 0
	}
	n := za.mon.ReplicaCount(service)
	if len(p.spills) == 0 {
		return n
	}
	for _, zi := range p.spills[service] {
		n += p.zones[zi].mon.ReplicaCount(service)
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
	p.zones[z].view.ReleaseNode(nodeID) // nil when NoteNodeRemoved already ran
	p.zones[z].mon.DetachNode(nodeID)
	delete(p.zoneOfNode, nodeID)
}

// AttachNode assigns a newly added machine to the zone with the fewest nodes
// (lowest index on ties) and registers it with that zone's arbiter. A
// machine re-added under the ID of one that failed while its arbiter still
// tracks it rejoins that zone's view, as it rejoins the physical cluster.
func (p *Plane) AttachNode(n *cluster.Node) {
	best, known := p.zoneOfNode[n.ID()]
	if known {
		if p.zones[best].view.Node(n.ID()) != nil {
			return
		}
	} else {
		for i := 1; i < len(p.zones); i++ {
			if len(p.zones[i].view.Nodes()) < len(p.zones[best].view.Nodes()) {
				best = i
			}
		}
	}
	if err := p.zones[best].view.AdoptNode(n); err != nil {
		return
	}
	p.zones[best].mon.AttachNode(n)
	p.zoneOfNode[n.ID()] = best
}

// NoteNodeRemoved mirrors a machine's physical removal into its zone view
// WITHOUT detaching it from the arbiter: the zone's failure detector must
// discover the death through missed polls, exactly as the single monitor
// does when the platform removes a node under self-healing.
func (p *Plane) NoteNodeRemoved(nodeID string) {
	if z, ok := p.zoneOfNode[nodeID]; ok {
		p.zones[z].view.ReleaseNode(nodeID)
	}
}
