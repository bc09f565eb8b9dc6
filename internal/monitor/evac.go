// Zone evacuation and re-adoption: the disaster-recovery half of the zoned
// control plane. The per-zone failure detectors (selfheal.go) already excise
// replicas from dead nodes and queue re-placements — but when EVERY node of a
// zone is dead, those re-placements retry against the same dead zone forever.
// The evacuation state machine closes that gap at the allocator level:
//
//	up ──all nodes dead──▶ evacuate (re-home services + their queued
//	                       re-placements into surviving zones, splitting
//	                       across up to SpilloverZones when no single zone
//	                       fits) ──▶ down
//	down ──all nodes healthy for ReadoptAfter──▶ readopt (drain the
//	                       temporary replicas, migrate state home, re-place
//	                       there) ──▶ up
//
// Everything here runs inside Plane.Poll before the zones poll, on the same
// goroutine as the rest of the simulator, and scans only deterministic
// slices — byte-identical output at any -parallel count is preserved.
package monitor

import (
	"fmt"
	"time"

	"hyscale/internal/container"
	"hyscale/internal/core"
	"hyscale/internal/obs"
	"hyscale/internal/resources"
)

// EvacCounts tallies the plane's disaster-recovery activity.
type EvacCounts struct {
	// ZonesEvacuated / ZonesReadopted count state-machine transitions of
	// zones that had services or spillover shards to move.
	ZonesEvacuated uint64 `json:"zonesEvacuated"`
	ZonesReadopted uint64 `json:"zonesReadopted"`
	// ServicesEvacuated counts services re-homed out of a dead zone;
	// ServicesReadopted counts services migrated back after a heal.
	ServicesEvacuated uint64 `json:"servicesEvacuated"`
	ServicesReadopted uint64 `json:"servicesReadopted"`
	// ReplicasDisplaced counts queued re-placements carried across a zone
	// boundary by an evacuation — the paper's "cross-zone replica
	// displacement".
	ReplicasDisplaced uint64 `json:"replicasDisplaced"`
	// SpilloverPlacements counts displaced replicas assigned beyond the
	// primary target zone because no single surviving zone fit the service.
	SpilloverPlacements uint64 `json:"spilloverPlacements"`
}

// evacTick advances the evacuation ⇄ re-adoption state machine for every zone
// in index order. Driven by the per-zone failure detectors, so it requires
// self-healing: with the detector off no node is ever ruled dead and the tick
// is a no-op.
func (p *Plane) evacTick(now time.Duration) {
	for _, z := range p.zones {
		collapsed := p.zoneCollapsed(z)
		switch {
		case collapsed && !z.down:
			p.evacuateZone(z, now)
			z.down = true
			z.healthyAt = -1
		case collapsed:
			z.healthyAt = -1
		case z.down:
			if !p.zoneAllHealthy(z) {
				// Partially healed: wait until every node answers again, and
				// restart the anti-flap clock on any relapse.
				z.healthyAt = -1
				continue
			}
			if z.healthyAt < 0 {
				z.healthyAt = now
			}
			if now-z.healthyAt >= p.cfg.readoptAfter() {
				p.readoptZone(z, now)
				z.down = false
				z.healthyAt = -1
			}
		}
	}
}

// zoneCollapsed reports whether every node of the zone is ruled dead by the
// zone's own failure detector. An empty zone (possible only transiently) is
// not collapsed — there is nothing to evacuate from it.
func (p *Plane) zoneCollapsed(z *zoneArbiter) bool {
	nodes := z.view.Nodes()
	if len(nodes) == 0 {
		return false
	}
	for _, n := range nodes {
		if !z.mon.nodeDead(n.ID()) {
			return false
		}
	}
	return true
}

// zoneAllHealthy reports whether every node of the zone has a clean detector
// record — the re-adoption gate, stricter than "not collapsed".
func (p *Plane) zoneAllHealthy(z *zoneArbiter) bool {
	nodes := z.view.Nodes()
	if len(nodes) == 0 {
		return false
	}
	return p.healthyNodes(z) == len(nodes)
}

// zoneUsable reports whether a zone may receive evacuated services: not
// already evacuated and not itself collapsed (relevant when several zones die
// in the same tick — index order means a later victim is not yet marked down
// when an earlier one evacuates).
func (p *Plane) zoneUsable(z *zoneArbiter) bool {
	return !z.down && !p.zoneCollapsed(z)
}

// evacuateZone re-homes everything the dead zone owned. Spillover shards
// guested here collapse back to their service's current home (the queued
// recovery work must live where the ledger does); home services are then
// assigned to surviving zones capacity-aware and moved with their retry-queue
// entries and lost-replica ledgers.
func (p *Plane) evacuateZone(z *zoneArbiter, now time.Duration) {
	p.gen++ // services re-home, spill and drop guest shards below
	work := len(z.services) + len(z.guests)
	for _, s := range append([]string(nil), z.guests...) {
		home := p.home(s)
		if home == nil || home == z {
			continue
		}
		p.dropGuest(z, s, home, now)
	}
	p.rehomeServices(z, now)
	if work > 0 {
		p.evac.ZonesEvacuated++
	}
}

// zoneShare is one zone's slice of an evacuated service's displaced replicas.
type zoneShare struct {
	zone  int
	count int
}

// rehomeServices moves every service homed in the dead zone into surviving
// zones. Free capacity is snapshotted once and consumed as services are
// assigned (in registration order), so services evacuated in the same tick
// spread instead of piling onto the zone that looked roomiest first.
func (p *Plane) rehomeServices(z *zoneArbiter, now time.Duration) {
	if len(z.services) == 0 {
		return
	}
	free := p.freeCapacity(z)
	for _, s := range append([]string(nil), z.services...) {
		st := z.mon.byName[s]
		if st == nil {
			continue
		}
		// The service's queued re-placements are the demand to fit: every
		// replica the detector excised has a ScaleOut waiting in the retry
		// queue (already-abandoned ones are gone for good either way).
		pend := extractPendings(z.mon, s)
		allocs := make([]resources.Vector, len(pend))
		for i, pa := range pend {
			if act, ok := pa.action.(core.ScaleOut); ok {
				allocs[i] = act.Alloc
			}
		}
		shares := p.splitAcrossZones(free, allocs)
		if shares == nil {
			// No surviving zone at all: leave the service in place; its
			// re-placements keep retrying against the dead zone until it
			// heals or they abandon.
			z.mon.retries = append(z.mon.retries, pend...)
			continue
		}
		primary := p.zones[shares[0].zone]
		if _, already := p.evacHome[s]; !already {
			p.evacHome[s] = z.idx // first home wins across chained evacuations
		}
		moveServiceState(z.mon, primary.mon, s)
		z.removeService(s)
		primary.services = append(primary.services, s)
		p.zoneOfService[s] = primary.idx
		// Lost-replica ledger entries follow their pending to whichever
		// monitor executes the replacement, so finishLost resolves locally;
		// entries with no pending left (replacement already ran or
		// abandoned) stay with the home state.
		idx := 0
		for si, share := range shares {
			dest := p.zones[share.zone]
			if si > 0 && share.count > 0 {
				p.ensureGuest(dest, primary.mon.byName[s], share.count)
				p.addSpill(s, dest.idx)
				p.evac.SpilloverPlacements += uint64(share.count)
			}
			for k := 0; k < share.count && idx < len(pend); k++ {
				moveLostByID(z.mon, dest.mon, pend[idx].lostID)
				dest.mon.retries = append(dest.mon.retries, pend[idx])
				idx++
			}
		}
		for ; idx < len(pend); idx++ { // defensive: anything unassigned → primary
			moveLostByID(z.mon, primary.mon, pend[idx].lostID)
			primary.mon.retries = append(primary.mon.retries, pend[idx])
		}
		moveLost(z.mon, primary.mon, s)
		p.evac.ServicesEvacuated++
		p.evac.ReplicasDisplaced += uint64(len(pend))
		detail := fmt.Sprintf("zone %d -> zone %d", z.idx, primary.idx)
		if len(shares) > 1 {
			detail += fmt.Sprintf(" (+%d spill zones)", len(shares)-1)
		}
		z.mon.event(now, obs.EventZoneEvacuate, "", s, "", detail)
	}
}

// freeCapacity snapshots each usable zone's per-healthy-node availability,
// indexed by zone (nil = zone unusable). splitAcrossZones consumes it.
func (p *Plane) freeCapacity(exclude *zoneArbiter) [][]resources.Vector {
	free := make([][]resources.Vector, len(p.zones))
	for _, z := range p.zones {
		if z == exclude || !p.zoneUsable(z) {
			continue
		}
		var nodes []resources.Vector
		for _, n := range z.view.Nodes() {
			if st := z.mon.nodeStates[n.ID()]; st != nil && (st.missed > 0 || st.health != NodeHealthy) {
				continue
			}
			nodes = append(nodes, n.Available())
		}
		free[z.idx] = nodes
	}
	return free
}

// splitAcrossZones assigns each displaced replica to a surviving zone: the
// zone fitting the most of them becomes the primary, ties broken by the most
// remaining free capacity (then lowest index) so successive evacuated
// services spread across the survivors instead of piling into one zone; when
// the primary cannot hold every replica and spillover is enabled, the
// remainder spreads over further zones, up to SpilloverZones total. Replicas
// no zone can hold are charged to the primary — they retry there and lease or
// abandon like any other placement failure. The free ledger is decremented
// by what was placed. Returns nil when no surviving zone exists at all.
func (p *Plane) splitAcrossZones(free [][]resources.Vector, allocs []resources.Vector) []zoneShare {
	maxSpan := p.cfg.SpilloverZones
	if maxSpan < 1 {
		maxSpan = 1
	}
	var shares []zoneShare
	taken := make(map[int]bool)
	remaining := allocs
	for {
		best, bestFit, bestFree := -1, -1, 0.0
		for zi := range free {
			if free[zi] == nil || taken[zi] {
				continue
			}
			fit := fitCount(free[zi], remaining, false)
			if fit < bestFit {
				continue
			}
			headroom := freeScore(free[zi])
			if fit > bestFit || headroom > bestFree {
				best, bestFit, bestFree = zi, fit, headroom
			}
		}
		if best < 0 {
			break
		}
		take := bestFit
		if take > len(remaining) {
			take = len(remaining)
		}
		fitCount(free[best], remaining[:take], true)
		shares = append(shares, zoneShare{zone: best, count: take})
		taken[best] = true
		remaining = remaining[take:]
		if len(remaining) == 0 || len(shares) >= maxSpan || bestFit == 0 {
			break
		}
	}
	if len(shares) == 0 {
		return nil
	}
	shares[0].count += len(remaining)
	return shares
}

// freeScore collapses a zone's free vectors into one balance scalar (CPU
// plus memory in GB) used to spread evacuees across equally-fitting zones.
func freeScore(nodes []resources.Vector) float64 {
	var s float64
	for _, n := range nodes {
		s += n.CPU + n.MemMB/1024
	}
	return s
}

// fitCount reports how many of allocs (in order) fit onto the nodes, placing
// each on the first node with room. commit=false probes a scratch copy;
// commit=true consumes the real availability vectors.
func fitCount(nodes []resources.Vector, allocs []resources.Vector, commit bool) int {
	if !commit {
		nodes = append([]resources.Vector(nil), nodes...)
	}
	fit := 0
	for _, a := range allocs {
		for i := range nodes {
			if a.FitsIn(nodes[i]) {
				nodes[i] = nodes[i].Sub(a)
				fit++
				break
			}
		}
	}
	return fit
}

// ensureGuest registers (or refreshes) a spillover shard of the home service
// in the destination zone, reserving a replica-index range on the home state
// so the two monitors never mint colliding container IDs.
func (p *Plane) ensureGuest(za *zoneArbiter, home *serviceState, reserve int) {
	if home == nil {
		return
	}
	name := home.spec.Name
	if g, ok := za.mon.byName[name]; ok && g.guest {
		g.nextIdx = home.nextIdx
		home.nextIdx += reserve
		return
	}
	g := &serviceState{spec: home.spec, info: home.info, guest: true, nextIdx: home.nextIdx}
	home.nextIdx += reserve
	za.mon.services = append(za.mon.services, g)
	za.mon.byName[name] = g
	za.guests = append(za.guests, name)
	za.mon.topoGen++
	za.mon.lastCheckpoint = nil // a restore must not resurrect a pre-shard view
}

// dropGuest tears a spillover shard out of a zone: live shard replicas are
// drained (their allocations returned so the caller can re-place them), and
// the shard's queued re-placements and lost-ledger entries move to dest —
// the service's current home. Used both when a guest's host zone dies (no
// live replicas remain then) and when the service migrates home.
func (p *Plane) dropGuest(za *zoneArbiter, s string, dest *zoneArbiter, now time.Duration) []resources.Vector {
	g := za.mon.byName[s]
	if g == nil || !g.guest {
		return nil
	}
	var allocs []resources.Vector
	for _, id := range append([]string(nil), g.replicaIDs...) {
		if c, _ := za.mon.findReplica(id); c != nil && c.State != container.StateRemoved {
			allocs = append(allocs, c.Alloc)
			za.mon.removeReplica(id)
		}
	}
	g.replicaIDs = g.replicaIDs[:0]
	movePendings(za.mon, dest.mon, s)
	moveLost(za.mon, dest.mon, s)
	delete(za.mon.byName, s)
	for i, st := range za.mon.services {
		if st == g {
			za.mon.services = append(za.mon.services[:i], za.mon.services[i+1:]...)
			break
		}
	}
	za.guests = removeString(za.guests, s)
	p.removeSpill(s, za.idx)
	za.mon.topoGen++
	za.mon.lastCheckpoint = nil
	dest.mon.lastCheckpoint = nil
	return allocs
}

// readoptZone migrates every service whose original home was this zone back
// into it: spillover shards and the temporary home are drained (allocations
// captured), decision state and ledgers move home, lost originals that
// survived the outage un-replaced are re-adopted, and everything drained is
// re-placed through the home reconciler's retry queue. A final sweep drains
// any orphan container left on the zone's nodes by work that resolved while
// the zone was unreachable.
func (p *Plane) readoptZone(z *zoneArbiter, now time.Duration) {
	p.gen++ // services move home and drop their spill shards below
	// Deterministic service order: scan zones/services, not the evacHome map.
	var names []string
	for _, zz := range p.zones {
		for _, s := range zz.services {
			if home, ok := p.evacHome[s]; ok && home == z.idx {
				names = append(names, s)
			}
		}
	}
	for _, s := range names {
		cur := p.zones[p.zoneOfService[s]]
		if cur == z {
			delete(p.evacHome, s)
			continue
		}
		st := cur.mon.byName[s]
		if st == nil {
			delete(p.evacHome, s)
			continue
		}
		// Collapse spillover shards into the current home first, then drain
		// the home's own replicas: every displaced replica's allocation ends
		// up in allocs for re-placement back here.
		var allocs []resources.Vector
		for _, zi := range append([]int(nil), p.spills[s]...) {
			allocs = append(allocs, p.dropGuest(p.zones[zi], s, cur, now)...)
		}
		delete(p.spills, s)
		for _, id := range append([]string(nil), st.replicaIDs...) {
			if c, _ := cur.mon.findReplica(id); c != nil && c.State != container.StateRemoved {
				allocs = append(allocs, c.Alloc)
				cur.mon.removeReplica(id)
			}
		}
		st.replicaIDs = st.replicaIDs[:0]
		moveServiceState(cur.mon, z.mon, s)
		cur.removeService(s)
		z.services = append(z.services, s)
		p.zoneOfService[s] = z.idx
		movePendings(cur.mon, z.mon, s)
		moveLost(cur.mon, z.mon, s)
		p.resolveLostHome(z, s, now)
		for _, a := range allocs {
			z.mon.retries = append(z.mon.retries, pendingAction{
				action: core.ScaleOut{Service: s, Alloc: a}, notBefore: now,
			})
		}
		// Every replica the service now has was started this instant with
		// zero observed usage; hold the algorithm off for one poll so it
		// does not trim them to the minimum before stats arrive.
		if home := z.mon.byName[s]; home != nil && home.holdPolls == 0 {
			home.holdPolls = 1
			z.mon.held++
		}
		delete(p.evacHome, s)
		p.evac.ServicesReadopted++
		z.mon.event(now, obs.EventZoneReadopt, "", s, "",
			fmt.Sprintf("zone %d -> zone %d", cur.idx, z.idx))
	}
	p.sweepOrphans(z, now)
	if len(names) > 0 {
		p.evac.ZonesReadopted++
	}
}

// resolveLostHome settles the re-homed service's lost-replica ledger against
// what physically survived the outage in the home zone: un-replaced
// survivors are re-adopted (and any still-queued replacement cancelled),
// replaced survivors are drained as stale, vanished replicas are forgotten.
func (p *Plane) resolveLostHome(z *zoneArbiter, s string, now time.Duration) {
	st := z.mon.byName[s]
	if st == nil {
		return
	}
	remaining := z.mon.lost[:0]
	for _, l := range z.mon.lost {
		if l.service != s {
			remaining = append(remaining, l)
			continue
		}
		c, node := z.mon.findReplica(l.id)
		alive := c != nil && c.State != container.StateRemoved
		switch {
		case !alive:
		case l.replaced:
			z.mon.removeFrom(node, l.id)
			z.mon.recovery.StaleDrained++
			z.mon.event(now, obs.EventStaleDrained, l.node, s, l.id, "")
		default:
			st.replicaIDs = append(st.replicaIDs, l.id)
			z.mon.replicaHome[l.id] = c.NodeID
			z.mon.recovery.Readopted++
			z.mon.event(now, obs.EventReadopted, c.NodeID, s, l.id, "")
			cancelPendingFor(z.mon, l.id, now)
		}
	}
	z.mon.lost = remaining
	z.mon.topoGen++
}

// cancelPendingFor drops the queued replacement for one re-adopted replica.
func cancelPendingFor(m *Monitor, lostID string, now time.Duration) {
	for i, pa := range m.retries {
		if pa.lostID != lostID || pa.lostID == "" {
			continue
		}
		m.recovery.ReconcileCancelled++
		if act, ok := pa.action.(core.ScaleOut); ok {
			m.event(now, obs.EventReconcileCancel, pa.reconcileNode, act.Service, lostID, "replica readopted")
		}
		m.retries = append(m.retries[:i], m.retries[i+1:]...)
		return
	}
}

// sweepOrphans drains containers on the zone's nodes that no arbiter owns —
// lost originals whose service's ledger entry was dropped while the zone was
// unreachable (e.g. a spillover shard's host zone died and the replacement
// resolved elsewhere). Their lost entries, wherever they ended up, go too.
func (p *Plane) sweepOrphans(z *zoneArbiter, now time.Duration) {
	for _, n := range z.view.Nodes() {
		var orphans []string
		for _, c := range n.Containers() {
			if c.State == container.StateRemoved {
				continue
			}
			if _, owned := z.mon.replicaHome[c.ID]; owned {
				continue
			}
			orphans = append(orphans, c.ID)
		}
		for _, id := range orphans {
			p.dropLostEverywhere(id)
			z.mon.removeReplica(id)
			z.mon.recovery.StaleDrained++
			z.mon.event(now, obs.EventStaleDrained, n.ID(), z.mon.serviceOfContainer(id), id, "zone sweep")
		}
	}
}

// dropLostEverywhere forgets a container from every arbiter's lost ledger.
func (p *Plane) dropLostEverywhere(id string) {
	for _, z := range p.zones {
		for i := range z.mon.lost {
			if z.mon.lost[i].id == id {
				z.mon.lost = append(z.mon.lost[:i], z.mon.lost[i+1:]...)
				break
			}
		}
	}
}

// addSpill records that a service keeps a spillover shard in zone zi.
func (p *Plane) addSpill(s string, zi int) {
	for _, z := range p.spills[s] {
		if z == zi {
			return
		}
	}
	p.spills[s] = append(p.spills[s], zi)
}

// removeSpill forgets a service's spillover shard in zone zi.
func (p *Plane) removeSpill(s string, zi int) {
	zs := p.spills[s]
	for i, z := range zs {
		if z == zi {
			p.spills[s] = append(zs[:i], zs[i+1:]...)
			if len(p.spills[s]) == 0 {
				delete(p.spills, s)
			}
			return
		}
	}
}

// removeService drops a service from the arbiter's home-service list.
func (z *zoneArbiter) removeService(s string) {
	z.services = removeString(z.services, s)
}

func removeString(xs []string, s string) []string {
	for i, x := range xs {
		if x == s {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}

// moveServiceState transfers a service's decision state between monitors.
// Both monitors' topologies change and neither's checkpoint may survive — a
// restore would otherwise resurrect the service in its old zone.
func moveServiceState(from, to *Monitor, s string) {
	st := from.byName[s]
	if st == nil {
		return
	}
	delete(from.byName, s)
	for i, x := range from.services {
		if x == st {
			from.services = append(from.services[:i], from.services[i+1:]...)
			break
		}
	}
	st.guest = false
	st.resolved = st.resolved[:0]
	st.resolvedGen = 0 // topoGen starts at 1, so 0 always misses the cache
	to.services = append(to.services, st)
	to.byName[s] = st
	from.topoGen++
	to.topoGen++
	from.lastCheckpoint = nil
	to.lastCheckpoint = nil
}

// extractPendings removes and returns, in queue order, every queued ScaleOut
// for the service — both reconciler re-placements and backing-off retries.
func extractPendings(m *Monitor, s string) []pendingAction {
	var out []pendingAction
	kept := m.retries[:0]
	for _, pa := range m.retries {
		if act, ok := pa.action.(core.ScaleOut); ok && act.Service == s {
			out = append(out, pa)
			continue
		}
		kept = append(kept, pa)
	}
	for i := len(kept); i < len(m.retries); i++ {
		m.retries[i] = pendingAction{}
	}
	m.retries = kept
	return out
}

// movePendings transfers the service's queued ScaleOuts from one monitor's
// retry queue to another's, preserving order.
func movePendings(from, to *Monitor, s string) {
	to.retries = append(to.retries, extractPendings(from, s)...)
}

// moveLost transfers every lost-ledger entry of the service between monitors.
func moveLost(from, to *Monitor, s string) {
	kept := from.lost[:0]
	for _, l := range from.lost {
		if l.service == s {
			to.lost = append(to.lost, l)
			continue
		}
		kept = append(kept, l)
	}
	from.lost = kept
}

// moveLostByID transfers one lost-ledger entry between monitors (no-op when
// the entry is gone — already replaced-and-dropped or never recorded).
func moveLostByID(from, to *Monitor, id string) {
	if id == "" {
		return
	}
	for i := range from.lost {
		if from.lost[i].id == id {
			to.lost = append(to.lost, from.lost[i])
			from.lost = append(from.lost[:i], from.lost[i+1:]...)
			return
		}
	}
}
