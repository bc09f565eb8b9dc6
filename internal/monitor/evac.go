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
	"slices"
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
	nodes := z.mon.cluster.Nodes()
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
	nodes := z.mon.cluster.Nodes()
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
	work := len(z.mon.services)
	for _, g := range z.states(true) {
		p.dropGuest(&p.services[g.info.Ord], z, now)
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
	states := z.states(false)
	if len(states) == 0 {
		return
	}
	free := p.freeCapacity(z)
	for _, st := range states {
		ord := st.info.Ord
		e := &p.services[ord]
		// The service's queued re-placements are the demand to fit: every
		// replica the detector excised has a ScaleOut waiting in the retry
		// queue (already-abandoned ones are gone for good either way).
		pend := extractPendings(z.mon, ord)
		allocs := make([]resources.Vector, len(pend))
		for i, pa := range pend {
			if pa.action.Kind == core.ScaleOut {
				allocs[i] = pa.action.Alloc
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
		if e.origin == nil {
			e.origin = z // first home wins across chained evacuations
		}
		// A primary already hosting a spill shard of s (a second
		// evacuation) folds it into the arriving home state.
		moveServiceState(z.mon, primary.mon, st, e.removeSpill(primary))
		e.home = primary
		// Lost-replica ledger entries follow their pending to whichever
		// monitor executes the replacement, so finishLost resolves locally;
		// entries with no pending left (replacement already ran or
		// abandoned) stay with the home state.
		idx := 0
		for si, share := range shares {
			dest := p.zones[share.zone]
			if si > 0 && share.count > 0 {
				e.ensureGuest(dest, share.count)
				p.evac.SpilloverPlacements += uint64(share.count)
			}
			for k := 0; k < share.count && idx < len(pend); k++ {
				moveLostFor(z.mon, dest.mon, pend[idx].lost)
				dest.mon.retries = append(dest.mon.retries, pend[idx])
				idx++
			}
		}
		for ; idx < len(pend); idx++ { // defensive: anything unassigned → primary
			moveLostFor(z.mon, primary.mon, pend[idx].lost)
			primary.mon.retries = append(primary.mon.retries, pend[idx])
		}
		moveLost(z.mon, primary.mon, ord)
		p.evac.ServicesEvacuated++
		p.evac.ReplicasDisplaced += uint64(len(pend))
		detail := fmt.Sprintf("zone %d -> zone %d", z.idx, primary.idx)
		if len(shares) > 1 {
			detail += fmt.Sprintf(" (+%d spill zones)", len(shares)-1)
		}
		z.mon.event(now, obs.EventZoneEvacuate, "", e.name, "", detail)
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
		for _, n := range z.mon.cluster.Nodes() {
			if !z.mon.nodeClean(n.ID()) {
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

// ensureGuest registers (or refreshes) a spillover shard of the service in
// the destination zone, reserving a replica-index range on the home state
// so the two monitors never mint colliding container IDs.
func (e *planeService) ensureGuest(za *zoneArbiter, reserve int) {
	home := e.st
	for _, sh := range e.spills {
		if sh.za == za {
			sh.st.nextIdx = home.nextIdx
			home.nextIdx += reserve
			return
		}
	}
	g := &serviceState{spec: home.spec, info: home.info, guest: true, nextIdx: home.nextIdx}
	home.nextIdx += reserve
	za.mon.services = append(za.mon.services, g)
	za.mon.lastCheckpoint = nil // a restore must not resurrect a pre-shard view
	k := 0
	for k < len(e.spills) && e.spills[k].za.idx < za.idx {
		k++
	}
	e.spills = slices.Insert(e.spills, k, shard{za: za, st: g})
}

// removeSpill forgets the service's spillover shard in za and returns its
// state, nil when it has none there.
func (e *planeService) removeSpill(za *zoneArbiter) *serviceState {
	for i, sh := range e.spills {
		if sh.za == za {
			e.spills = slices.Delete(e.spills, i, i+1)
			return sh.st
		}
	}
	return nil
}

// dropGuest tears the service's spillover shard out of zone za: live shard
// replicas are drained (their allocations returned so the caller can
// re-place them), and the shard's queued re-placements and lost-ledger
// entries move to the service's current home. Used both when a guest's
// host zone dies (no live replicas remain then) and when the service
// migrates home.
func (p *Plane) dropGuest(e *planeService, za *zoneArbiter, now time.Duration) []resources.Vector {
	g := e.removeSpill(za)
	if g == nil {
		return nil
	}
	allocs := za.mon.drain(nil, g)
	movePendings(za.mon, e.home.mon, g.info.Ord)
	moveLost(za.mon, e.home.mon, g.info.Ord)
	za.mon.unregister(g)
	za.mon.lastCheckpoint = nil
	e.home.mon.lastCheckpoint = nil
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
	// The DR goldens pin the service order: zone by zone, in each arbiter's
	// list order, not in table order.
	var moving []*planeService
	for _, zz := range p.zones {
		for _, st := range zz.mon.services {
			if e := &p.services[st.info.Ord]; !st.guest && e.origin == z {
				moving = append(moving, e)
			}
		}
	}
	for _, e := range moving {
		cur, st, ord := e.home, e.st, e.st.info.Ord
		e.origin = nil
		if cur == z {
			continue
		}
		// Collapse spillover shards into the current home first, then drain
		// the home's own replicas: every displaced replica's allocation ends
		// up in allocs for re-placement back here.
		var allocs []resources.Vector
		for len(e.spills) > 0 {
			allocs = append(allocs, p.dropGuest(e, e.spills[0].za, now)...)
		}
		allocs = cur.mon.drain(allocs, st)
		moveServiceState(cur.mon, z.mon, st, nil)
		e.home = z
		movePendings(cur.mon, z.mon, ord)
		moveLost(cur.mon, z.mon, ord)
		// Settle the ledger against what survived the outage here.
		z.mon.settleLost(now, func(l lostReplica) bool { return l.ord == ord })
		for _, a := range allocs {
			z.mon.retries = append(z.mon.retries, pendingAction{
				action: core.StartOn(ord, "", a), notBefore: now,
			})
		}
		// Every replica the service now has was started this instant with
		// zero observed usage; hold the algorithm off for one poll so it
		// does not trim them to the minimum before stats arrive.
		st.holdPolls = 1
		p.evac.ServicesReadopted++
		z.mon.event(now, obs.EventZoneReadopt, "", e.name, "",
			fmt.Sprintf("zone %d -> zone %d", cur.idx, z.idx))
	}
	p.sweepOrphans(z, now)
	if len(moving) > 0 {
		p.evac.ZonesReadopted++
	}
}

// sweepOrphans drains containers on the zone's nodes that no arbiter owns —
// lost originals whose service's ledger entry was dropped while the zone was
// unreachable (e.g. a spillover shard's host zone died and the replacement
// resolved elsewhere). Their lost entries, wherever they ended up, go too.
func (p *Plane) sweepOrphans(z *zoneArbiter, now time.Duration) {
	owned := make(map[*container.Container]bool)
	for _, st := range z.mon.services {
		for _, c := range st.replicas {
			owned[c] = true
		}
	}
	for _, n := range z.mon.cluster.Nodes() {
		var orphans []*container.Container
		for _, c := range n.Containers() {
			if c.State != container.StateRemoved && !owned[c] {
				orphans = append(orphans, c)
			}
		}
		for _, c := range orphans {
			p.dropLostEverywhere(c)
			z.mon.removeFrom(n, c)
			z.mon.recovery.StaleDrained++
			z.mon.event(now, obs.EventStaleDrained, n.ID(), c.Service, c.ID, "zone sweep")
		}
	}
}

// dropLostEverywhere forgets a container from every arbiter's lost ledger.
func (p *Plane) dropLostEverywhere(c *container.Container) {
	for _, z := range p.zones {
		for i := range z.mon.lost {
			if z.mon.lost[i].c == c {
				z.mon.lost = append(z.mon.lost[:i], z.mon.lost[i+1:]...)
				break
			}
		}
	}
}

// drain removes every live replica of st, emptying its replica set, and
// appends their allocations to allocs for re-placement.
func (m *Monitor) drain(allocs []resources.Vector, st *serviceState) []resources.Vector {
	for k, c := range st.replicas {
		if c.State != container.StateRemoved {
			allocs = append(allocs, c.Alloc)
			m.removeFrom(st.hosts[k], c)
		}
	}
	st.truncate(0)
	return allocs
}

// moveServiceState transfers a service's decision state st between
// monitors. g, when not nil, is the service's spillover shard in to: it
// folds into the arriving state, its replicas joining the home's, so a
// monitor never holds two states for one service. Neither monitor's
// checkpoint may survive — a restore would otherwise resurrect the service
// in its old zone.
func moveServiceState(from, to *Monitor, st, g *serviceState) {
	from.unregister(st)
	if g != nil {
		st.replicas = append(st.replicas, g.replicas...)
		st.hosts = append(st.hosts, g.hosts...)
		to.unregister(g)
	}
	to.services = append(to.services, st)
	from.lastCheckpoint = nil
	to.lastCheckpoint = nil
}

// extractPendings removes and returns, in queue order, every queued ScaleOut
// for service ord — both reconciler re-placements and backing-off retries.
func extractPendings(m *Monitor, ord int) []pendingAction {
	var out []pendingAction
	kept := m.retries[:0]
	for _, pa := range m.retries {
		if pa.action.Kind == core.ScaleOut && int(pa.action.Svc) == ord+1 {
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

// movePendings transfers service ord's queued ScaleOuts from one monitor's
// retry queue to another's, preserving order.
func movePendings(from, to *Monitor, ord int) {
	to.retries = append(to.retries, extractPendings(from, ord)...)
}

// moveLost transfers every lost-ledger entry of service ord between monitors.
func moveLost(from, to *Monitor, ord int) {
	kept := from.lost[:0]
	for _, l := range from.lost {
		if l.ord == ord {
			to.lost = append(to.lost, l)
			continue
		}
		kept = append(kept, l)
	}
	from.lost = kept
}

// moveLostFor transfers the lost-ledger entry of container c between
// monitors (no-op when there is none — c is nil, or its entry was already
// replaced-and-dropped or never recorded).
func moveLostFor(from, to *Monitor, c *container.Container) {
	for i := range from.lost {
		if from.lost[i].c == c {
			to.lost = append(to.lost, from.lost[i])
			from.lost = append(from.lost[:i], from.lost[i+1:]...)
			return
		}
	}
}
