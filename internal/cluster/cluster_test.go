package cluster

import (
	"math"
	"testing"
	"time"

	"hyscale/internal/container"
	"hyscale/internal/netem"
	"hyscale/internal/resources"
	"hyscale/internal/workload"
)

func testSpec() workload.ServiceSpec {
	return workload.ServiceSpec{
		Name: "svc", Kind: workload.KindCPUBound,
		CPUPerRequest: 1.0,
		MemPerRequest: 10, BaselineMemMB: 50,
		InitialReplicaCPU: 1, InitialReplicaMemMB: 256,
		MinReplicas: 1, MaxReplicas: 8,
		Timeout: 60 * time.Second,
	}
}

func testNode(t *testing.T) *Node {
	t.Helper()
	n, err := NewNode(DefaultNodeConfig("node-0"))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func running(id string, spec workload.ServiceSpec, alloc resources.Vector) *container.Container {
	c := container.New(id, spec, "", alloc, 0)
	c.MaybeStart(0)
	return c
}

// tickNode runs one physics tick on a node outside any cluster.
func tickNode(n *Node, now, dt time.Duration) TickResult {
	var res TickResult
	n.advance(&res, now, dt, &scratch{})
	return res
}

func TestNewNodeValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*NodeConfig)
	}{
		{"empty id", func(c *NodeConfig) { c.ID = "" }},
		{"zero cpu", func(c *NodeConfig) { c.Capacity.CPU = 0 }},
		{"zero mem", func(c *NodeConfig) { c.Capacity.MemMB = 0 }},
		{"swap penalty < 1", func(c *NodeConfig) { c.SwapPenalty = 0.5 }},
		{"negative contention", func(c *NodeConfig) { c.CPUContention = -1 }},
		{"NaN cpu", func(c *NodeConfig) { c.Capacity.CPU = math.NaN() }},
		{"NaN swap penalty", func(c *NodeConfig) { c.SwapPenalty = math.NaN() }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultNodeConfig("n")
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate accepted an invalid config")
			}
			if _, err := NewNode(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if err := DefaultNodeConfig("n").Validate(); err != nil {
		t.Errorf("Validate rejected the default config: %v", err)
	}
}

func TestAddRemoveContainer(t *testing.T) {
	n := testNode(t)
	c := running("c-0", testSpec(), resources.Vector{CPU: 1, MemMB: 256})
	if err := n.AddContainer(c); err != nil {
		t.Fatal(err)
	}
	if c.NodeID != "node-0" {
		t.Errorf("NodeID = %q, want node-0", c.NodeID)
	}
	if err := n.AddContainer(c); err == nil {
		t.Error("duplicate container accepted")
	}
	if n.Container("c-0") != c {
		t.Error("lookup failed")
	}

	c.Enqueue(workload.NewRequest(1, testSpec(), 0))
	killed := n.RemoveContainer("c-0")
	if len(killed) != 1 {
		t.Errorf("killed = %d, want 1", len(killed))
	}
	if n.Container("c-0") != nil || len(n.Containers()) != 0 {
		t.Error("container not removed")
	}
	if n.RemoveContainer("nope") != nil {
		t.Error("removing unknown container returned requests")
	}
}

func TestAllocatedAvailable(t *testing.T) {
	n := testNode(t)
	_ = n.AddContainer(running("a", testSpec(), resources.Vector{CPU: 1, MemMB: 1024}))
	_ = n.AddContainer(running("b", testSpec(), resources.Vector{CPU: 2.5, MemMB: 4096, NetMbps: 100}))

	alloc := n.Allocated()
	if alloc.CPU != 3.5 || alloc.MemMB != 5120 || alloc.NetMbps != 100 {
		t.Errorf("Allocated = %v", alloc)
	}
	avail := n.Available()
	if avail.CPU != 0.5 || avail.MemMB != 8192-5120 {
		t.Errorf("Available = %v", avail)
	}
}

func TestAvailableFloorsAtZero(t *testing.T) {
	n := testNode(t)
	_ = n.AddContainer(running("a", testSpec(), resources.Vector{CPU: 10, MemMB: 99999}))
	avail := n.Available()
	if avail.CPU != 0 || avail.MemMB != 0 {
		t.Errorf("Available = %v, want zeros", avail)
	}
}

// TestProportionalSharing checks the Docker cpu-shares semantics: two
// saturated containers with 1:2 weights split the (contention-derated)
// capacity 1:2.
func TestProportionalSharing(t *testing.T) {
	cfg := DefaultNodeConfig("n")
	cfg.CPUContention = 0 // isolate the proportionality
	n, _ := NewNode(cfg)

	a := running("a", testSpec(), resources.Vector{CPU: 1, MemMB: 256})
	b := running("b", testSpec(), resources.Vector{CPU: 2, MemMB: 256})
	a.StressCPUDemand = 8
	b.StressCPUDemand = 8
	_ = n.AddContainer(a)
	_ = n.AddContainer(b)

	tickNode(n, 0, time.Second)
	ua, ub := a.LastUsage().CPU, b.LastUsage().CPU
	if math.Abs(ua-4.0/3) > 1e-6 || math.Abs(ub-8.0/3) > 1e-6 {
		t.Errorf("shares = %.3f/%.3f, want 1.333/2.667", ua, ub)
	}
}

// TestWorkConservingSharing checks that slack from an idle-ish container is
// redistributed (cpu-shares are weights, not caps).
func TestWorkConservingSharing(t *testing.T) {
	cfg := DefaultNodeConfig("n")
	cfg.CPUContention = 0
	n, _ := NewNode(cfg)

	a := running("a", testSpec(), resources.Vector{CPU: 2, MemMB: 256})
	b := running("b", testSpec(), resources.Vector{CPU: 2, MemMB: 256})
	a.StressCPUDemand = 0.5 // demands less than its share
	b.StressCPUDemand = 8
	_ = n.AddContainer(a)
	_ = n.AddContainer(b)

	tickNode(n, 0, time.Second)
	if got := a.LastUsage().CPU; math.Abs(got-0.5) > 1e-6 {
		t.Errorf("a usage = %v, want its demand 0.5", got)
	}
	if got := b.LastUsage().CPU; math.Abs(got-3.5) > 1e-6 {
		t.Errorf("b usage = %v, want 3.5 (work-conserving slack)", got)
	}
}

// TestContentionDerate checks the §III-A co-location effect: with two active
// containers the node delivers capacity/(1+c).
func TestContentionDerate(t *testing.T) {
	cfg := DefaultNodeConfig("n")
	cfg.CPUContention = 0.17
	n, _ := NewNode(cfg)

	a := running("a", testSpec(), resources.Vector{CPU: 2, MemMB: 256})
	b := running("b", testSpec(), resources.Vector{CPU: 2, MemMB: 256})
	a.StressCPUDemand = 8
	b.StressCPUDemand = 8
	_ = n.AddContainer(a)
	_ = n.AddContainer(b)

	tickNode(n, 0, time.Second)
	total := a.LastUsage().CPU + b.LastUsage().CPU
	want := 4.0 / 1.17
	if math.Abs(total-want) > 1e-6 {
		t.Errorf("total delivered = %v, want %v", total, want)
	}
}

// TestSwapThrottlesProgress checks the §III-B swap cliff: a container past
// its memory limit progresses at a fraction of its demand.
func TestSwapThrottlesProgress(t *testing.T) {
	cfg := DefaultNodeConfig("n")
	cfg.CPUContention = 0
	cfg.SwapPenalty = 8
	n, _ := NewNode(cfg)

	s := testSpec()
	s.MemPerRequest = 100
	// Limit 140 < baseline 50 + 100: a single request forces swapping.
	c := running("c", s, resources.Vector{CPU: 4, MemMB: 140})
	_ = n.AddContainer(c)
	c.Enqueue(workload.NewRequest(1, s, 0))

	tickNode(n, 0, time.Second)
	// Demand 1 core; depth = 150/140; throttled to 1/(8*150/140) ≈ 0.117.
	want := 1.0 / (8 * (150.0 / 140.0))
	if got := c.LastUsage().CPU; math.Abs(got-want) > 1e-6 {
		t.Errorf("swapping usage = %v, want %v", got, want)
	}
}

func TestStartingContainersDoNotProcess(t *testing.T) {
	n := testNode(t)
	c := container.New("c", testSpec(), "", resources.Vector{CPU: 1, MemMB: 256}, 5*time.Second)
	_ = n.AddContainer(c)
	c.Enqueue(workload.NewRequest(1, testSpec(), 0))

	res := tickNode(n, 0, time.Second)
	if len(res.Completed) != 0 {
		t.Fatal("starting container completed work")
	}
	// At t=5s MaybeStart fires inside Advance and it begins processing.
	res = tickNode(n, 5*time.Second, time.Second)
	if c.State != container.StateRunning {
		t.Fatal("container did not start")
	}
	if len(res.Completed) != 1 {
		t.Fatalf("Completed = %d, want 1", len(res.Completed))
	}
}

func TestNetworkAllocationOnNode(t *testing.T) {
	cfg := DefaultNodeConfig("n")
	cfg.Net = netem.Model{CapacityMbps: 100, TxQueueContention: 0}
	n, _ := NewNode(cfg)

	s := testSpec()
	s.CPUPerRequest = 0.001
	s.NetPerRequest = 1000 // long transfer
	c := running("c", s, resources.Vector{CPU: 1, MemMB: 256, NetMbps: 40})
	_ = n.AddContainer(c)
	c.Enqueue(workload.NewRequest(1, s, 0))

	// First tick finishes the CPU phase.
	tickNode(n, 0, 100*time.Millisecond)
	// Second tick transmits at the tc cap (40 Mbps).
	tickNode(n, 100*time.Millisecond, time.Second)
	if got := c.LastUsage().NetMbps; math.Abs(got-40) > 1e-6 {
		t.Errorf("net usage = %v, want tc cap 40", got)
	}
}

func TestClusterBasics(t *testing.T) {
	cl, err := NewHomogeneous(3, DefaultNodeConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Nodes()) != 3 {
		t.Fatalf("nodes = %d, want 3", len(cl.Nodes()))
	}
	if cl.Node("node-1") == nil || cl.Node("nope") != nil {
		t.Error("Node lookup wrong")
	}
	if err := cl.AddNode(DefaultNodeConfig("node-1")); err == nil {
		t.Error("duplicate node accepted")
	}

	c := running("c-0", testSpec(), resources.Vector{CPU: 1, MemMB: 256})
	_ = cl.Node("node-2").AddContainer(c)
	found, node := cl.FindContainer("c-0")
	if found != c || node.ID() != "node-2" {
		t.Error("FindContainer failed")
	}
	if got := len(cl.ReplicasOf("svc")); got != 1 {
		t.Errorf("ReplicasOf = %d, want 1", got)
	}
}

func TestNewHomogeneousRejectsZero(t *testing.T) {
	if _, err := NewHomogeneous(0, DefaultNodeConfig("")); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestRemoveNode(t *testing.T) {
	cl, _ := NewHomogeneous(2, DefaultNodeConfig(""))
	c := running("c-0", testSpec(), resources.Vector{CPU: 1, MemMB: 256})
	_ = cl.Node("node-0").AddContainer(c)
	c.Enqueue(workload.NewRequest(1, testSpec(), 0))

	killed, err := cl.RemoveNode("node-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(killed) != 1 {
		t.Errorf("killed = %d, want 1", len(killed))
	}
	if len(cl.Nodes()) != 1 || cl.Node("node-0") != nil {
		t.Error("node not removed")
	}
	if _, err := cl.RemoveNode("node-0"); err == nil {
		t.Error("removing unknown node succeeded")
	}
}

func TestClusterAdvanceMergesResults(t *testing.T) {
	cl, _ := NewHomogeneous(2, DefaultNodeConfig(""))
	for i, id := range []string{"node-0", "node-1"} {
		s := testSpec()
		s.CPUPerRequest = 0.5
		c := running(string(rune('a'+i)), s, resources.Vector{CPU: 2, MemMB: 256})
		_ = cl.Node(id).AddContainer(c)
		c.Enqueue(workload.NewRequest(uint64(i), s, 0))
	}
	res := cl.Advance(0, time.Second)
	if len(res.Completed) != 2 {
		t.Errorf("Completed = %d, want 2 (one per node)", len(res.Completed))
	}
}
