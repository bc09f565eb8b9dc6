package monitor

import (
	"slices"
	"testing"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/faults"
	"hyscale/internal/nodemanager"
)

// evacPlane builds a zoned plane with self-healing detectors armed and the
// evacuation state machine configured, plus one zone-outage fault window.
func evacPlane(t *testing.T, nodes, zones, spillover int, outage faults.Window) *Plane {
	t.Helper()
	cl, err := cluster.NewHomogeneous(nodes, cluster.DefaultNodeConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlane(cl, planeNoopAlgo{}, PlaneConfig{
		Zones: zones, Evacuate: true, SpilloverZones: spillover,
		ReadoptAfter: 20 * time.Second,
		StartDelay:   time.Second, SelfHealing: DefaultSelfHealing(),
	}, faults.New(faults.Config{Windows: []faults.Window{outage}}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func pollRange(p *Plane, from, to time.Duration) {
	for now := from; now <= to; now += 5 * time.Second {
		p.Poll(now)
	}
}

// TestZoneEvacuateReadoptRoundTrip drives the full state machine: the
// outage collapses zone 0, its service is re-homed into a survivor and its
// replicas re-placed there; after the heal plus the anti-flap cooldown the
// service migrates back home.
func TestZoneEvacuateReadoptRoundTrip(t *testing.T) {
	p := evacPlane(t, 8, 4, 0, faults.Window{
		Kind: faults.KindZoneOutage, Target: "0", From: 4 * time.Second, To: 122 * time.Second,
	})
	for _, name := range []string{"a", "b", "c", "d"} {
		if err := p.AddService(planeSpec(name, 1, 2, 2), 0.5); err != nil {
			t.Fatal(err)
		}
		if err := p.DeployInitial(p.ordOf[name], 0); err != nil {
			t.Fatal(err)
		}
	}
	if z := p.ZoneOfService("a"); z != 0 {
		t.Fatalf("service a homed in zone %d, want 0", z)
	}

	// Detector: suspect after 2 missed polls, dead after 4; both zone-0
	// nodes are dead by t=20s, and the next tick evacuates.
	pollRange(p, 5*time.Second, 60*time.Second)
	ev := p.Evac()
	if ev.ZonesEvacuated != 1 || ev.ServicesEvacuated != 1 {
		t.Fatalf("after outage: evac counts = %+v", ev)
	}
	if ev.ReplicasDisplaced != 2 {
		t.Errorf("displaced = %d, want 2", ev.ReplicasDisplaced)
	}
	if z := p.ZoneOfService("a"); z == 0 {
		t.Error("service a still homed in the dead zone")
	}
	if !p.ZoneSummaries()[0].Evacuated {
		t.Error("zone 0 not marked evacuated")
	}
	if got := p.ReplicaCount("a"); got != 2 {
		t.Errorf("replicas after evacuation = %d, want 2 re-placed", got)
	}

	// Heal at 122s; the zone must stay fully healthy for ReadoptAfter (20s)
	// before the service migrates home.
	pollRange(p, 65*time.Second, 200*time.Second)
	ev = p.Evac()
	if ev.ZonesReadopted != 1 || ev.ServicesReadopted != 1 {
		t.Fatalf("after heal: evac counts = %+v", ev)
	}
	if z := p.ZoneOfService("a"); z != 0 {
		t.Errorf("service a homed in zone %d after re-adoption, want 0", z)
	}
	if p.ZoneSummaries()[0].Evacuated {
		t.Error("healed zone still marked evacuated")
	}
	if got := p.ReplicaCount("a"); got != 2 {
		t.Errorf("replicas after re-adoption = %d, want 2", got)
	}
	// Ownership stays exclusive and exhaustive through the round trip.
	total := 0
	for _, zs := range p.ZoneSummaries() {
		total += zs.Replicas
	}
	want := 0
	for _, name := range []string{"a", "b", "c", "d"} {
		want += p.ReplicaCount(name)
	}
	if total != want {
		t.Errorf("zone ledgers own %d replicas, services report %d", total, want)
	}
}

// TestZoneEvacuationSpillover forces a service too large for any single
// survivor: 6 two-core replicas against survivors with 8 CPU free each.
// With spillover the remainder lands as a guest shard in a second zone;
// without it the overflow is abandoned after the retry budget.
func TestZoneEvacuationSpillover(t *testing.T) {
	outage := faults.Window{
		Kind: faults.KindZoneOutage, Target: "0", From: 4 * time.Second, To: time.Hour,
	}
	// 12 nodes in 3 zones: 16 CPU per zone. Zone 0: the 12-CPU mammoth;
	// zones 1 and 2: 8 CPU of fillers each, leaving 8 free apiece.
	build := func(spillover int) *Plane {
		p := evacPlane(t, 12, 3, spillover, outage)
		for _, s := range []struct {
			name     string
			replicas int
		}{{"a", 6}, {"b", 4}, {"c", 4}} {
			if err := p.AddService(planeSpec(s.name, 2, s.replicas, s.replicas), 0.5); err != nil {
				t.Fatal(err)
			}
			if err := p.DeployInitial(p.ordOf[s.name], 0); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}

	withSpill := build(2)
	pollRange(withSpill, 5*time.Second, 120*time.Second)
	ev := withSpill.Evac()
	if ev.ReplicasDisplaced != 6 {
		t.Errorf("spillover run displaced %d, want 6", ev.ReplicasDisplaced)
	}
	if ev.SpilloverPlacements != 2 {
		t.Errorf("spillover placements = %d, want 2 (4 fit the primary)", ev.SpilloverPlacements)
	}
	if got := withSpill.ReplicaCount("a"); got != 6 {
		t.Errorf("with spillover: replicas = %d, want all 6 re-placed", got)
	}
	// A manual scale-in removes the newest replicas first: the spill
	// shard's, then the home's.
	a := &withSpill.services[0]
	home := a.home.mon.appendLive(nil, a.st)
	if err := withSpill.Scale("a", 3, 125*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := withSpill.Replicas("a"); len(a.spills) != 1 || a.spills[0].za.mon.liveReplicas(a.spills[0].st) != 0 ||
		!slices.Equal(got, home[:3]) {
		t.Errorf("after scaling to 3: replicas %d, want the home's first 3 and an empty shard", len(got))
	}

	plain := build(0)
	pollRange(plain, 5*time.Second, 200*time.Second)
	ev = plain.Evac()
	if ev.SpilloverPlacements != 0 {
		t.Errorf("plain evacuation recorded %d spillover placements", ev.SpilloverPlacements)
	}
	if got := plain.ReplicaCount("a"); got != 4 {
		t.Errorf("without spillover: replicas = %d, want 4 (overflow abandoned)", got)
	}
	if plain.Counts().AbandonedActions == 0 {
		t.Error("overflow replicas were never abandoned")
	}
}

// TestZoneOutageWithoutEvacuationStaysPut: with the DR path disabled a
// collapsed zone keeps its services — nothing is re-homed and no DR
// counters move.
func TestZoneOutageWithoutEvacuationStaysPut(t *testing.T) {
	cl, err := cluster.NewHomogeneous(8, cluster.DefaultNodeConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlane(cl, planeNoopAlgo{}, PlaneConfig{
		Zones: 4, StartDelay: time.Second, SelfHealing: DefaultSelfHealing(),
	}, faults.New(faults.Config{Windows: []faults.Window{
		{Kind: faults.KindZoneOutage, Target: "0", From: 4 * time.Second, To: time.Hour},
	}}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddService(planeSpec("a", 1, 2, 2), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := p.DeployInitial(p.ordOf["a"], 0); err != nil {
		t.Fatal(err)
	}
	pollRange(p, 5*time.Second, 120*time.Second)
	if p.evac != (EvacCounts{}) {
		t.Errorf("evacuation disabled but counters moved: %+v", p.evac)
	}
	if ev := p.Evac(); ev != nil {
		t.Errorf("evacuation disabled but Evac() = %+v, want nil", *ev)
	}
	if z := p.ZoneOfService("a"); z != 0 {
		t.Errorf("service a re-homed to zone %d with evacuation disabled", z)
	}
}

// TestSampleVisitsOccupiedNodes checks the occupancy caches the zone views
// share with the physical cluster: through an evacuate → spill → readopt
// round trip, a node failure and its recovery, every view's Occupied must
// equal a scan of its nodes, and every arbiter must sample exactly the
// managers of occupied nodes.
func TestSampleVisitsOccupiedNodes(t *testing.T) {
	p := evacPlane(t, 12, 3, 2, faults.Window{
		Kind: faults.KindZoneOutage, Target: "0", From: 4 * time.Second, To: 122 * time.Second,
	})
	for _, s := range []struct {
		name     string
		replicas int
	}{{"a", 6}, {"b", 4}, {"c", 4}} {
		if err := p.AddService(planeSpec(s.name, 2, s.replicas, s.replicas), 0.5); err != nil {
			t.Fatal(err)
		}
		if err := p.DeployInitial(p.ordOf[s.name], 0); err != nil {
			t.Fatal(err)
		}
	}
	victim := p.zones[1].mon.cluster.Occupied()[0].ID()
	for now := 5 * time.Second; now <= 200*time.Second; now += 5 * time.Second {
		switch now {
		case 30 * time.Second:
			if _, err := p.global.RemoveNode(victim); err != nil {
				t.Fatal(err)
			}
			p.NoteNodeRemoved(victim)
		case 60 * time.Second:
			if err := p.global.AddNode(cluster.DefaultNodeConfig(victim)); err != nil {
				t.Fatal(err)
			}
			p.AttachNode(p.global.Node(victim))
		}
		p.Poll(now)
		p.Sample()
		for _, z := range p.zones {
			var nodes []*cluster.Node
			for _, n := range z.mon.cluster.Nodes() {
				if len(n.Containers()) > 0 {
					nodes = append(nodes, n)
				}
			}
			if !slices.Equal(z.mon.cluster.Occupied(), nodes) {
				t.Fatalf("t=%v zone %d: Occupied lists %d nodes, a scan finds %d", now, z.idx, len(z.mon.cluster.Occupied()), len(nodes))
			}
			var nms []*nodemanager.Manager
			for i := range z.mon.nodes {
				if nm := z.mon.nodes[i].nm; nm.Occupied() {
					nms = append(nms, nm)
				}
			}
			if !slices.Equal(z.mon.sampling, nms) {
				t.Fatalf("t=%v zone %d: sampling %d managers, %d host containers", now, z.idx, len(z.mon.sampling), len(nms))
			}
		}
	}
	if ev := p.Evac(); ev.ZonesEvacuated == 0 || ev.ZonesReadopted == 0 || ev.SpilloverPlacements == 0 {
		t.Errorf("outage never ran the evacuate → spill → readopt round trip: %+v", ev)
	}
}

// TestZoneSecondEvacuationFoldsSpillShard evacuates a spilled service a
// second time, into the zone holding its spill shard: the first outage homes
// a in zone 1 with a shard in zone 2, and the second re-homes it into zone 2.
// The shard must fold into the arriving home state — one state per name in
// every arbiter, no replica routed twice, and the zone ledgers owning exactly
// the replicas the plane routes to.
func TestZoneSecondEvacuationFoldsSpillShard(t *testing.T) {
	cl, err := cluster.NewHomogeneous(16, cluster.DefaultNodeConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlane(cl, planeNoopAlgo{}, PlaneConfig{
		Zones: 4, Evacuate: true, SpilloverZones: 2, ReadoptAfter: 20 * time.Second,
		StartDelay: time.Second, SelfHealing: DefaultSelfHealing(),
	}, faults.New(faults.Config{Windows: []faults.Window{
		{Kind: faults.KindZoneOutage, Target: "0", From: 4 * time.Second, To: time.Hour},
		{Kind: faults.KindZoneOutage, Target: "1", From: 100 * time.Second, To: time.Hour},
	}}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c", "d"}
	for _, name := range names {
		n := 4
		if name == "a" {
			n = 6
		}
		if err := p.AddService(planeSpec(name, 2, n, n), 0.5); err != nil {
			t.Fatal(err)
		}
		if err := p.DeployInitial(p.ordOf[name], 0); err != nil {
			t.Fatal(err)
		}
	}
	rehomed := false
	for now := 5 * time.Second; now <= 250*time.Second; now += 5 * time.Second {
		p.Poll(now)
		if now == 95*time.Second && (p.ZoneOfService("a") != 1 || !slices.Equal(p.spillZones("a"), []int{2})) {
			t.Fatalf("first evacuation homed a in zone %d with spills %v, want zone 1 with a shard in zone 2",
				p.ZoneOfService("a"), p.spillZones("a"))
		}
		rehomed = rehomed || p.ZoneOfService("a") == 2
		for _, z := range p.zones {
			seen := map[string]bool{}
			for _, st := range z.mon.services {
				if seen[st.spec.Name] {
					t.Fatalf("t=%v zone %d holds two states for %q", now, z.idx, st.spec.Name)
				}
				seen[st.spec.Name] = true
			}
		}
		routed := map[string]bool{}
		for _, name := range names {
			for _, c := range p.Replicas(name) {
				if routed[c.ID] {
					t.Fatalf("t=%v replica %s routed twice (spills %v)", now, c.ID, p.spillZones(name))
				}
				routed[c.ID] = true
			}
		}
		owned := 0
		for _, zs := range p.ZoneSummaries() {
			owned += zs.Replicas
		}
		if owned != len(routed) {
			t.Fatalf("t=%v zone ledgers own %d replicas, the plane routes to %d", now, owned, len(routed))
		}
	}
	if !rehomed {
		t.Error("the second outage never re-homed a into its spill zone")
	}
}

// checkTable compares every entry of the plane's service table with a scan
// of the arbiters' service lists: the home is the arbiter holding the
// service's non-guest state, the spills are the zones holding a guest state,
// in zone order, and RouteView routes to the replicas the scan finds.
func checkTable(t *testing.T, p *Plane, when string) {
	t.Helper()
	if len(p.ordOf) != len(p.services) {
		t.Fatalf("%s: %d names resolve to ordinals, the table has %d entries", when, len(p.ordOf), len(p.services))
	}
	var scratch []*container.Container
	for ord, e := range p.services {
		sc := p.scan(e.name)
		if p.ordOf[e.name] != ord || e.st.info.Ord != ord {
			t.Fatalf("%s: %s is entry %d, its name resolves to %d and its state says %d", when, e.name, ord, p.ordOf[e.name], e.st.info.Ord)
		}
		if e.home.idx != sc.home || e.home.mon.scanState(e.name) != e.st || e.home.mon.stateOf(ord) != e.st || e.st.guest {
			t.Fatalf("%s: %s homed in zone %d, the scan finds its state in zone %d", when, e.name, e.home.idx, sc.home)
		}
		var spills []int
		for _, sh := range e.spills {
			spills = append(spills, sh.za.idx)
			if sh.za.mon.scanState(e.name) != sh.st || sh.za.mon.stateOf(ord) != sh.st || !sh.st.guest {
				t.Fatalf("%s: %s's shard in zone %d is not that arbiter's guest state", when, e.name, sh.za.idx)
			}
		}
		if !slices.Equal(spills, sc.spills) {
			t.Fatalf("%s: %s spills into zones %v, the scan finds guests in %v", when, e.name, spills, sc.spills)
		}
		var live []*container.Container
		for _, c := range p.RouteView(ord, &scratch) {
			if c.State != container.StateRemoved {
				live = append(live, c)
			}
		}
		if !slices.Equal(live, sc.replicas) {
			t.Fatalf("%s: %s routes to %d replicas, the scan finds %d", when, e.name, len(live), len(sc.replicas))
		}
	}
}

// TestServiceTableMatchesArbiters checks the plane's service table against
// a scan of the arbiters after a deployment that leases a machine, and
// after registration and every poll through an evacuation with spillover
// (a, out of zone 0), a second one that re-homes a spilled service into its
// shard's zone and one that needs no spillover (a and b, out of zone 1),
// and a's readoption into zone 0.
func TestServiceTableMatchesArbiters(t *testing.T) {
	leased, _ := newTestPlane(t, 4, 2)
	if err := leased.AddService(planeSpec("web", 3, 3, 6), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := leased.deployAll(0); err != nil || leased.Cross().NodeLeases != 1 {
		t.Fatalf("deploying web leased %d machines (%v), want 1", leased.Cross().NodeLeases, err)
	}
	checkTable(t, leased, "lease")

	cl, err := cluster.NewHomogeneous(16, cluster.DefaultNodeConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlane(cl, planeNoopAlgo{}, PlaneConfig{
		Zones: 4, Evacuate: true, SpilloverZones: 2, ReadoptAfter: 20 * time.Second,
		StartDelay: time.Second, SelfHealing: DefaultSelfHealing(),
	}, faults.New(faults.Config{Windows: []faults.Window{
		{Kind: faults.KindZoneOutage, Target: "0", From: 4 * time.Second, To: 150 * time.Second},
		{Kind: faults.KindZoneOutage, Target: "1", From: 100 * time.Second, To: time.Hour},
	}}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		n := 4
		if name == "a" {
			n = 6
		}
		if err := p.AddService(planeSpec(name, 2, n, n), 0.5); err != nil {
			t.Fatal(err)
		}
		checkTable(t, p, "add "+name)
	}
	if err := p.deployAll(0); err != nil {
		t.Fatal(err)
	}
	checkTable(t, p, "deploy")

	a, b := &p.services[0], &p.services[1]
	spilled, folded, readopted := false, false, false
	for now := 5 * time.Second; now <= 250*time.Second; now += 5 * time.Second {
		p.Poll(now)
		checkTable(t, p, now.String())
		spilled = spilled || (a.home.idx == 1 && len(a.spills) == 1 && a.origin == p.zones[0])
		folded = folded || (spilled && a.home.idx == 2 && len(a.spills) == 0 && b.home.idx != 1 && len(b.spills) == 0)
		readopted = readopted || (folded && a.home.idx == 0 && a.origin == nil)
	}
	if !spilled || !folded || !readopted {
		t.Errorf("missed a stage: spilled %v, folded %v, readopted %v", spilled, folded, readopted)
	}
	if b.origin != p.zones[1] {
		t.Errorf("b's origin = %v, want zone 1, still down", b.origin)
	}
}

// checkQueuedWork checks every arbiter's queued actions and lost-ledger
// entries: each must resolve by its service ordinal to a state of that
// arbiter, and to the one a by-name scan of the arbiter's own service list
// finds. names lists the services in registration order, as the test
// registered them. It returns how many entries it checked.
func checkQueuedWork(t *testing.T, p *Plane, names []string, when string) int {
	t.Helper()
	checked := 0
	check := func(z *zoneArbiter, ord int, what string) {
		t.Helper()
		if st, want := z.mon.stateOf(ord), z.mon.scanState(names[ord]); st == nil || st != want {
			t.Fatalf("%s: zone %d: %s of %s resolves by ordinal to %p, the scan finds %p", when, z.idx, what, names[ord], st, want)
		}
		checked++
	}
	for _, z := range p.zones {
		for _, pa := range z.mon.retries {
			check(z, int(pa.action.Svc)-1, "queued action")
		}
		for _, l := range z.mon.lost {
			check(z, l.ord, "lost replica "+l.c.ID)
		}
	}
	return checked
}

// TestQueuedWorkResolvesByOrdinal checks the queued work and lost ledgers
// of every arbiter (checkQueuedWork) after deployment and after every poll
// through node deaths and their reconcile enqueues, a checkpoint restore,
// evacuations with spillover (a, out of zone 0) and without (b, c), and
// then, in one run, a second evacuation that folds a's spill shard into its
// new home and a's readoption, and in the other the death of a's spill zone,
// which hands the shard's queued re-placements to a's home. Each run ends
// with a cold restart.
func TestQueuedWorkResolvesByOrdinal(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	for _, run := range []struct {
		name   string
		second string // the zone whose outage starts at 100 s
		heal   time.Duration
	}{
		{"fold", "1", 150 * time.Second},
		{"shard zone dies", "2", time.Hour},
	} {
		t.Run(run.name, func(t *testing.T) {
			cl, err := cluster.NewHomogeneous(16, cluster.DefaultNodeConfig(""))
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPlane(cl, planeNoopAlgo{}, PlaneConfig{
				Zones: 4, Evacuate: true, SpilloverZones: 2, ReadoptAfter: 20 * time.Second,
				StartDelay: time.Second, SelfHealing: DefaultSelfHealing(),
			}, faults.New(faults.Config{Windows: []faults.Window{
				{Kind: faults.KindZoneOutage, Target: "0", From: 4 * time.Second, To: run.heal},
				{Kind: faults.KindZoneOutage, Target: run.second, From: 100 * time.Second, To: time.Hour},
			}}), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				n := 4
				if name == "a" {
					n = 6
				}
				if err := p.AddService(planeSpec(name, 2, n, n), 0.5); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.deployAll(0); err != nil {
				t.Fatal(err)
			}
			checkQueuedWork(t, p, names, "deploy")

			a := &p.services[0]
			checked, restoredWork := 0, 0
			spilled, folded, shardDropped, readopted := false, false, false, false
			for now := 5 * time.Second; now <= 250*time.Second; now += 5 * time.Second {
				p.Poll(now)
				checked += checkQueuedWork(t, p, names, now.String())
				if now == 30*time.Second {
					// A crash restores every arbiter from the checkpoint taken
					// after the previous poll, queued re-placements included.
					p.Restart(now)
					restoredWork = checkQueuedWork(t, p, names, "restore")
				}
				p.MaybeCheckpoint(now)
				spilled = spilled || (len(a.spills) == 1 && a.origin == p.zones[0])
				folded = folded || (spilled && a.home.idx == 2 && len(a.spills) == 0)
				shardDropped = shardDropped || (spilled && a.home.idx == 1 && len(a.spills) == 0)
				readopted = readopted || (folded && a.home.idx == 0 && a.origin == nil)
			}
			for _, z := range p.zones {
				z.mon.lastCheckpoint = nil
			}
			p.Restart(255 * time.Second)
			checkQueuedWork(t, p, names, "cold restart")

			rec := p.Recovery()
			if checked == 0 || restoredWork == 0 || rec.CheckpointRestores == 0 || rec.ColdRestarts != uint64(len(p.zones)) {
				t.Errorf("checked %d entries, %d after the restore; restores %d, cold restarts %d", checked, restoredWork, rec.CheckpointRestores, rec.ColdRestarts)
			}
			if run.second == "1" && (!spilled || !folded || !readopted) {
				t.Errorf("missed a stage: spilled %v, folded %v, readopted %v", spilled, folded, readopted)
			}
			if run.second == "2" && (!spilled || !shardDropped) {
				t.Errorf("missed a stage: spilled %v, shard dropped %v", spilled, shardDropped)
			}
		})
	}
}
