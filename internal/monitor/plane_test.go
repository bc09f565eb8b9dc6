package monitor

import (
	"testing"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/core"
	"hyscale/internal/obs"
	"hyscale/internal/resources"
	"hyscale/internal/workload"
)

type planeNoopAlgo struct{}

func (planeNoopAlgo) Name() string                   { return "static" }
func (planeNoopAlgo) Decide(core.Snapshot) core.Plan { return core.Plan{} }

func planeSpec(name string, cpu float64, min, max int) workload.ServiceSpec {
	return workload.ServiceSpec{
		Name: name, Kind: workload.KindCPUBound,
		CPUPerRequest: 0.1, MemPerRequest: 10, BaselineMemMB: 100,
		InitialReplicaCPU: cpu, InitialReplicaMemMB: 256,
		MinReplicas: min, MaxReplicas: max, Timeout: 30 * time.Second,
	}
}

func newTestPlane(t *testing.T, nodes, zones int) (*Plane, *cluster.Cluster) {
	t.Helper()
	cl, err := cluster.NewHomogeneous(nodes, cluster.DefaultNodeConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlane(cl, planeNoopAlgo{}, PlaneConfig{Zones: zones})
	if err != nil {
		t.Fatal(err)
	}
	return p, cl
}

func TestPlanePartitionsNodesContiguously(t *testing.T) {
	p, _ := newTestPlane(t, 10, 3)
	sizes := []int{}
	total := 0
	for _, s := range p.ZoneSummaries() {
		sizes = append(sizes, s.Nodes)
		total += s.Nodes
	}
	if total != 10 {
		t.Fatalf("zones cover %d nodes, want 10", total)
	}
	want := []int{3, 3, 4}
	for i, n := range want {
		if sizes[i] != n {
			t.Fatalf("zone sizes = %v, want %v", sizes, want)
		}
	}
	// node-0..2 → zone 0, node-3..5 → zone 1, node-6..9 → zone 2.
	for id, z := range map[string]int{"node-0": 0, "node-2": 0, "node-3": 1, "node-9": 2} {
		if got := p.zoneOfNode[id]; got != z {
			t.Fatalf("zoneOfNode[%s] = %d, want %d", id, got, z)
		}
	}
	if got := len(p.NodeConditions()); got != 10 {
		t.Fatalf("NodeConditions() covers %d nodes, want 10", got)
	}
}

func TestPlaneAssignsServicesRoundRobin(t *testing.T) {
	p, _ := newTestPlane(t, 8, 4)
	for i, name := range []string{"a", "b", "c", "d", "e", "f"} {
		if err := p.AddService(planeSpec(name, 1, 1, 4), 0.5); err != nil {
			t.Fatal(err)
		}
		if got, want := p.ZoneOfService(name), i%4; got != want {
			t.Fatalf("service %s assigned to zone %d, want %d", name, got, want)
		}
	}
	if err := p.AddService(planeSpec("a", 1, 1, 4), 0.5); err == nil {
		t.Fatal("duplicate service registration should fail")
	}
}

func TestPlaneLeasesIdleNodeWhenZoneIsFull(t *testing.T) {
	// Zone 0 owns node-0/node-1 (4 CPU each); three 3-CPU replicas need a
	// third machine, which must be leased from zone 1.
	p, _ := newTestPlane(t, 4, 2)
	if err := p.AddService(planeSpec("web", 3, 3, 6), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := p.DeployInitial("web", 0); err != nil {
		t.Fatalf("DeployInitial should lease capacity: %v", err)
	}
	if got := p.ReplicaCount("web"); got != 3 {
		t.Fatalf("ReplicaCount = %d, want 3", got)
	}
	if c := p.Cross(); c.NodeLeases != 1 {
		t.Fatalf("NodeLeases = %d, want 1", c.NodeLeases)
	}
	zs := p.ZoneSummaries()
	if zs[0].Nodes != 3 || zs[1].Nodes != 1 {
		t.Fatalf("zone sizes after lease = %d/%d, want 3/1", zs[0].Nodes, zs[1].Nodes)
	}
	// The donor must keep its last machine: with zone 1 down to one node,
	// further lease attempts must fail rather than drain it to zero.
	before := p.Cross().NodeLeases
	if p.leaseInto(0, resources.Vector{CPU: 3}) {
		t.Fatal("lease should fail when the donor would drop to zero nodes")
	}
	if p.Cross().NodeLeases != before {
		t.Fatal("failed lease must not count as a lease")
	}
	if p.Cross().LeaseFailures == 0 {
		t.Fatal("failed lease should count as a lease failure")
	}
}

func TestPlaneProactiveLeaseBeforePoll(t *testing.T) {
	// The scaling algorithm silently skips scale-outs with no fitting node,
	// so a starved zone must receive an idle machine BEFORE Decide runs.
	p, cl := newTestPlane(t, 4, 2)
	if err := p.AddService(planeSpec("web", 1, 1, 8), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := p.DeployInitial("web", 0); err != nil {
		t.Fatal(err)
	}
	// Exhaust zone 0's headroom with pinned ballast so no node retains a
	// full core.
	for _, id := range []string{"node-0", "node-1"} {
		n := cl.Node(id)
		free := n.Available()
		ballast := container.New("ballast-"+id, planeSpec("ballast-"+id, 1, 1, 1), id,
			resources.Vector{CPU: free.CPU - 0.5, MemMB: 64}, 0)
		ballast.MaybeStart(0)
		if err := n.AddContainer(ballast); err != nil {
			t.Fatal(err)
		}
	}
	p.Sample()
	p.Poll(5 * time.Second)
	if c := p.Cross(); c.NodeLeases != 1 {
		t.Fatalf("NodeLeases = %d, want 1 proactive lease", c.NodeLeases)
	}
	zs := p.ZoneSummaries()
	if zs[0].Nodes != 3 {
		t.Fatalf("zone 0 has %d nodes after proactive lease, want 3", zs[0].Nodes)
	}
}

func TestPlaneStartReplicaRejectsCrossZonePin(t *testing.T) {
	p, _ := newTestPlane(t, 4, 2)
	if err := p.AddService(planeSpec("web", 1, 1, 4), 0.5); err != nil {
		t.Fatal(err)
	}
	// web lives in zone 0; node-3 belongs to zone 1.
	if err := p.StartReplica("web", "node-3", resources.Vector{CPU: 1, MemMB: 256}, 0); err == nil {
		t.Fatal("cross-zone pin should be rejected")
	}
	if err := p.StartReplica("web", "node-1", resources.Vector{CPU: 1, MemMB: 256}, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPlaneAttachDetachKeepsZonesBalanced(t *testing.T) {
	p, cl := newTestPlane(t, 4, 2)
	if err := cl.AddNode(cluster.DefaultNodeConfig("node-new")); err != nil {
		t.Fatal(err)
	}
	p.AttachNode(cl.Node("node-new"))
	if got := p.zoneOfNode["node-new"]; got != 0 {
		t.Fatalf("new node assigned to zone %d, want 0 (fewest-nodes tie → lowest)", got)
	}
	p.DetachNode("node-new")
	if _, ok := p.zoneOfNode["node-new"]; ok {
		t.Fatal("detached node still mapped to a zone")
	}
	if got := len(p.NodeConditions()); got != 4 {
		t.Fatalf("NodeConditions() covers %d nodes after detach, want 4", got)
	}
}

// TestPlaneReattachReplacedNode: a machine that failed under self-healing
// (released from its view, still tracked by its arbiter) and is re-added
// under the same ID rejoins its zone's view, just as it rejoins the physical
// cluster — at one zone, as the central Monitor over the shared cluster saw
// it, and at several.
func TestPlaneReattachReplacedNode(t *testing.T) {
	for _, zones := range []int{1, 2} {
		p, cl := newTestPlane(t, 4, zones)
		if _, err := cl.RemoveNode("node-3"); err != nil {
			t.Fatal(err)
		}
		p.NoteNodeRemoved("node-3")
		if err := cl.AddNode(cluster.DefaultNodeConfig("node-3")); err != nil {
			t.Fatal(err)
		}
		p.AttachNode(cl.Node("node-3"))
		z := p.zones[p.zoneOfNode["node-3"]]
		if got := z.view.Node("node-3"); got != cl.Node("node-3") {
			t.Errorf("zones=%d: zone %d view holds %p for node-3, want the re-added node %p", zones, z.idx, got, cl.Node("node-3"))
		}
		if got := len(z.view.Nodes()); got != 4/zones {
			t.Errorf("zones=%d: zone %d view has %d nodes, want %d", zones, z.idx, got, 4/zones)
		}
	}
}

// TestPlaneApplyRoutesContainerActions checks the manual-scale path: a
// container-addressed action reaches the arbiter whose view holds the
// container, whether that arbiter indexed it or it was placed behind the
// plane's back, and an unknown container changes nothing.
func TestPlaneApplyRoutesContainerActions(t *testing.T) {
	p, cl := newTestPlane(t, 6, 3)
	for _, name := range []string{"a", "b", "c"} {
		if err := p.AddService(planeSpec(name, 1, 1, 4), 0.5); err != nil {
			t.Fatal(err)
		}
		if err := p.DeployInitial(name, 0); err != nil {
			t.Fatal(err)
		}
	}
	// node-5 sits in zone 2, whose arbiter never indexed this container.
	stray := container.New("x-0", planeSpec("x", 1, 1, 1), "node-5", resources.Vector{CPU: 1, MemMB: 256}, 0)
	if err := cl.Node("node-5").AddContainer(stray); err != nil {
		t.Fatal(err)
	}
	b := p.Replicas("b")[0]
	grow := resources.Vector{CPU: 1.5, MemMB: 256}
	p.Apply(core.Plan{Actions: []core.Action{
		core.VerticalScale{ContainerID: b.ID, NewAlloc: grow},
		core.VerticalScale{ContainerID: stray.ID, NewAlloc: grow},
		core.VerticalScale{ContainerID: "ghost-0", NewAlloc: grow},
	}}, time.Second)

	if b.Alloc != grow || stray.Alloc != grow {
		t.Fatalf("allocs = %v, %v; want both %v", b.Alloc, stray.Alloc, grow)
	}
	arbs := p.Arbiters()
	for z, want := range []uint64{0, 1, 1} {
		if got := arbs[z].Counts().Vertical; got != want {
			t.Errorf("zone %d applied %d vertical actions, want %d", z, got, want)
		}
	}
}

// TestPlaneApplyJournalsUnownedActionsMoot: an action no arbiter owns (an
// unknown container) is still journaled as moot, exactly as the single
// Monitor journals it, at one zone and at several.
func TestPlaneApplyJournalsUnownedActionsMoot(t *testing.T) {
	for _, zones := range []int{1, 3} {
		p, _ := newTestPlane(t, 6, zones)
		j := obs.NewJournal()
		for _, m := range p.Arbiters() {
			m.Obs = j
		}
		if err := p.AddService(planeSpec("a", 1, 1, 4), 0.5); err != nil {
			t.Fatal(err)
		}
		p.Apply(core.Plan{Actions: []core.Action{
			core.VerticalScale{ContainerID: "ghost-0", NewAlloc: resources.Vector{CPU: 2, MemMB: 256}},
			core.ScaleIn{ContainerID: "ghost-1"},
		}}, time.Second)
		got := j.Decisions()
		if len(got) != 2 {
			t.Fatalf("zones=%d: journaled %d decisions, want 2", zones, len(got))
		}
		for i, want := range []string{"ghost-0", "ghost-1"} {
			if got[i].Container != want || got[i].Outcome != obs.OutcomeMoot {
				t.Errorf("zones=%d: decision %d = {%s %v}, want {%s moot}", zones, i, got[i].Container, got[i].Outcome, want)
			}
		}
	}
}
