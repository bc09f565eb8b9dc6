package monitor

import (
	"testing"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/core"
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
	p, err := NewPlane(cl, planeNoopAlgo{}, PlaneConfig{Zones: zones, StartDelay: time.Second}, nil, nil, nil)
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
	if err := p.DeployInitial(p.ordOf["web"], 0); err != nil {
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
	if err := p.DeployInitial(p.ordOf["web"], 0); err != nil {
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
// it, and at several. The arbiter's manager then queries the new machine: a
// container placed there shows in the node's snapshot stats, and the
// detector record the failed machine left counts the first answered poll
// as the node's recovery. The name-keyed self-check runs throughout.
func TestPlaneReattachReplacedNode(t *testing.T) {
	defer VerifyOrdinals(VerifyOrdinals(true))
	for _, zones := range []int{1, 2} {
		p, cl := newTestPlane(t, 4, zones)
		for _, z := range p.zones {
			z.mon.selfHeal = DefaultSelfHealing()
		}
		for _, name := range []string{"a", "b"} {
			if err := p.AddService(planeSpec(name, 1, 1, 4), 0.5); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cl.RemoveNode("node-3"); err != nil {
			t.Fatal(err)
		}
		p.NoteNodeRemoved("node-3")
		z := p.zones[p.zoneOfNode["node-3"]]
		// Two missed polls make node-3 suspect.
		z.mon.Snapshot(5 * time.Second)
		z.mon.Snapshot(10 * time.Second)
		if got := health(z.mon, "node-3"); got != NodeSuspect {
			t.Fatalf("zones=%d: node-3 is %v after two missed polls, want suspect", zones, got)
		}
		if err := cl.AddNode(cluster.DefaultNodeConfig("node-3")); err != nil {
			t.Fatal(err)
		}
		p.AttachNode(cl.Node("node-3"))
		if got := z.mon.cluster.Node("node-3"); got != cl.Node("node-3") {
			t.Errorf("zones=%d: zone %d view holds %p for node-3, want the re-added node %p", zones, z.idx, got, cl.Node("node-3"))
		}
		if got := len(z.mon.cluster.Nodes()); got != 4/zones {
			t.Errorf("zones=%d: zone %d view has %d nodes, want %d", zones, z.idx, got, 4/zones)
		}

		svc := "a"
		if p.ZoneOfService(svc) != z.idx {
			svc = "b"
		}
		if err := p.StartReplica(svc, "node-3", resources.Vector{CPU: 2, MemMB: 256}, 12*time.Second); err != nil {
			t.Fatal(err)
		}
		snap := z.mon.Snapshot(15 * time.Second)
		var got *core.NodeStats
		for i := range snap.Nodes {
			if snap.Nodes[i].ID == "node-3" {
				got = &snap.Nodes[i]
			}
		}
		if got == nil {
			t.Fatalf("zones=%d: the snapshot after the re-add leaves node-3 out", zones)
		}
		if want := cl.Node("node-3").Capacity().CPU - 2; got.Available.CPU != want || len(got.Hosts) != 1 || got.Hosts[0] != svc {
			t.Errorf("zones=%d: node-3 reports %v CPUs available hosting %v, want %v hosting [%s]", zones, got.Available.CPU, got.Hosts, want, svc)
		}
		if h, r := health(z.mon, "node-3"), z.mon.Recovery().Recovered; h != NodeHealthy || r != 1 {
			t.Errorf("zones=%d: after the re-added node answered, node-3 is %v with %d recoveries, want healthy with 1", zones, h, r)
		}
	}
}

// TestPlaneArbitersPayConfiguredStartDelay: PlaneConfig.StartDelay reaches
// every arbiter, at one zone and at several — a manual scale-out at 10 s
// becomes ready 7 s later, not after the bare Monitor's 1 s default.
func TestPlaneArbitersPayConfiguredStartDelay(t *testing.T) {
	for _, zones := range []int{1, 3} {
		cl, err := cluster.NewHomogeneous(6, cluster.DefaultNodeConfig(""))
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlane(cl, planeNoopAlgo{}, PlaneConfig{Zones: zones, StartDelay: 7 * time.Second}, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"a", "b", "c"} {
			if err := p.AddService(planeSpec(name, 1, 1, 4), 0.5); err != nil {
				t.Fatal(err)
			}
			if err := p.DeployInitial(p.ordOf[name], 0); err != nil {
				t.Fatal(err)
			}
			if err := p.Scale(name, 2, 10*time.Second); err != nil {
				t.Fatal(err)
			}
			reps := p.Replicas(name)
			if len(reps) != 2 || reps[1].ReadyAt != 17*time.Second {
				t.Fatalf("zones=%d service %s: replicas %d, scale-out ready at %v; want 2, 17s", zones, name, len(reps), reps[len(reps)-1].ReadyAt)
			}
		}
	}
}
