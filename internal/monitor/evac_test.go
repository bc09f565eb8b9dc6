package monitor

import (
	"slices"
	"testing"
	"time"

	"hyscale/internal/cluster"
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
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range p.Arbiters() {
		m.SelfHeal = DefaultSelfHealing()
	}
	p.InstallZoneFaults(faults.New(faults.Config{Windows: []faults.Window{outage}}))
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
		if err := p.DeployInitial(name, 0); err != nil {
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
			if err := p.DeployInitial(s.name, 0); err != nil {
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
	p, err := NewPlane(cl, planeNoopAlgo{}, PlaneConfig{Zones: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range p.Arbiters() {
		m.SelfHeal = DefaultSelfHealing()
	}
	p.InstallZoneFaults(faults.New(faults.Config{Windows: []faults.Window{
		{Kind: faults.KindZoneOutage, Target: "0", From: 4 * time.Second, To: time.Hour},
	}}))
	if err := p.AddService(planeSpec("a", 1, 2, 2), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := p.DeployInitial("a", 0); err != nil {
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
		if err := p.DeployInitial(s.name, 0); err != nil {
			t.Fatal(err)
		}
	}
	victim := p.zones[1].view.Occupied()[0].ID()
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
			for _, n := range z.view.Nodes() {
				if len(n.Containers()) > 0 {
					nodes = append(nodes, n)
				}
			}
			if !slices.Equal(z.view.Occupied(), nodes) {
				t.Fatalf("t=%v zone %d: Occupied lists %d nodes, a scan finds %d", now, z.idx, len(z.view.Occupied()), len(nodes))
			}
			var nms []*nodemanager.Manager
			for _, nm := range z.mon.nms {
				if nm.Occupied() {
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
