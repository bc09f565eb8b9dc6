package cluster

import (
	"fmt"
	"math"
	"testing"
	"time"

	"hyscale/internal/container"
	"hyscale/internal/resources"
	"hyscale/internal/workload"
)

const memoTick = 100 * time.Millisecond

// memoSpec is a service whose replicas burn background CPU while idle, so
// an idle node's usage depends on its allocations, swap state and
// co-location.
func memoSpec(name string, bg float64) workload.ServiceSpec {
	return workload.ServiceSpec{
		Name: name, Kind: workload.KindCPUBound,
		CPUPerRequest: 0.3, NetPerRequest: 5, MemPerRequest: 30,
		BaselineMemMB: 50, BackgroundCPU: bg,
		InitialReplicaCPU: 1, InitialReplicaMemMB: 256,
		MinReplicas: 1, MaxReplicas: 8, Timeout: 60 * time.Second,
	}
}

// memoScript drives one side of TestAdvanceMemoMatchesFull. Both sides run
// the same script on identically built clusters: idle stretches (memo hits)
// broken by every input the memo must notice — vertical updates that move
// CPU weights and cross the swap line, container churn, a Starting
// container, in-flight work that swaps, a stress container and a node
// failure. It returns the IDs of requests killed by the tick's mutations.
func memoScript(t *testing.T, cl *Cluster, tick int, now time.Duration) []uint64 {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	update := func(node, id string, alloc resources.Vector) {
		t.Helper()
		must(cl.Node(node).Container(id).Update(alloc))
	}
	enqueue := func(node, id string, reqID uint64) {
		c := cl.Node(node).Container(id)
		c.Enqueue(workload.NewRequest(reqID, c.Spec, now))
	}
	var killed []uint64
	switch tick {
	case 0:
		// node-0: two replicas whose background burn exceeds the derated
		// capacity, so their CPU weights decide the split.
		must(cl.Node("node-0").AddContainer(running("a", memoSpec("a", 2.5), resources.Vector{CPU: 1, MemMB: 256, NetMbps: 100})))
		must(cl.Node("node-0").AddContainer(running("b", memoSpec("b", 2.5), resources.Vector{CPU: 1, MemMB: 256, NetMbps: 100})))
		// node-1: a replica whose in-flight footprint crosses its memory
		// limit (50 + 2×30 > 100).
		must(cl.Node("node-1").AddContainer(running("w", memoSpec("w", 0.1), resources.Vector{CPU: 1, MemMB: 100, NetMbps: 50})))
		// node-2: a CPU and network stress contender beside a replica.
		s := running("s", memoSpec("stress", 0), resources.Vector{CPU: 1, MemMB: 256, NetMbps: 200})
		s.StressCPUDemand, s.StressNetFlows = 2, 4
		must(cl.Node("node-2").AddContainer(s))
		must(cl.Node("node-2").AddContainer(running("r", memoSpec("r", 0.3), resources.Vector{CPU: 1, MemMB: 256, NetMbps: 100})))
		// node-3: a busy replica on a machine that fails mid-run.
		must(cl.Node("node-3").AddContainer(running("f", memoSpec("f", 0.2), resources.Vector{CPU: 2, MemMB: 512, NetMbps: 100})))
		enqueue("node-3", "f", 1)
	case 5, 6:
		enqueue("node-1", "w", uint64(tick))
		enqueue("node-3", "f", uint64(100+tick))
	case 20:
		update("node-0", "a", resources.Vector{CPU: 3, MemMB: 256, NetMbps: 100}) // weights 3:1
	case 25:
		for i := uint64(0); i < 3; i++ {
			enqueue("node-1", "w", 200+i)
		}
	case 30:
		update("node-0", "a", resources.Vector{CPU: 3, MemMB: 40, NetMbps: 100}) // idle swap entry
	case 35:
		update("node-2", "s", resources.Vector{CPU: 1, MemMB: 256, NetMbps: 80}) // tc cap binds
	case 40:
		update("node-0", "a", resources.Vector{CPU: 3, MemMB: 256, NetMbps: 100}) // swap exit
	case 50:
		for _, r := range cl.Node("node-0").RemoveContainer("b") {
			killed = append(killed, r.ID)
		}
	case 60:
		c := container.New("d", memoSpec("d", 0.4), "", resources.Vector{CPU: 1, MemMB: 256}, now+3*memoTick)
		must(cl.Node("node-0").AddContainer(c))
	case 70:
		must(cl.Node("node-0").AddContainer(running("e", memoSpec("e", 0.6), resources.Vector{CPU: 1, MemMB: 256})))
	case 80:
		enqueue("node-3", "f", 300)
		enqueue("node-2", "r", 301)
	case 90:
		out, err := cl.RemoveNode("node-3")
		must(err)
		for _, r := range out {
			killed = append(killed, r.ID)
		}
	case 100:
		update("node-1", "w", resources.Vector{CPU: 0.5, MemMB: 100, NetMbps: 50})
	}
	return killed
}

// tickDigest renders everything a tick produces, bit for bit: every
// container's usage sample and every completion and timeout.
func tickDigest(cl *Cluster, res TickResult, killed []uint64) string {
	s := fmt.Sprintf("killed %v\n", killed)
	for _, n := range cl.Nodes() {
		for _, c := range n.Containers() {
			u := c.LastUsage()
			s += fmt.Sprintf("%s/%s %s %x %x %x\n", n.ID(), c.ID, c.State,
				math.Float64bits(u.CPU), math.Float64bits(u.MemMB), math.Float64bits(u.NetMbps))
		}
	}
	for _, d := range res.Completed {
		s += fmt.Sprintf("done %d %d\n", d.Request.ID, d.At)
	}
	for _, r := range res.TimedOut {
		s += fmt.Sprintf("timeout %d\n", r.ID)
	}
	return s
}

// TestAdvanceMemoMatchesFull is the idle memo's reference test: a cluster
// whose nodes replay memoised idle ticks must agree bit for bit, on every
// usage sample and tick result, with a twin that computes every tick in
// full.
func TestAdvanceMemoMatchesFull(t *testing.T) {
	memo, _ := NewHomogeneous(4, DefaultNodeConfig(""))
	full, _ := NewHomogeneous(4, DefaultNodeConfig(""))
	hits := 0
	for tick := 0; tick < 140; tick++ {
		now := time.Duration(tick) * memoTick
		km := memoScript(t, memo, tick, now)
		kf := memoScript(t, full, tick, now)
		for _, n := range full.Nodes() {
			n.memo.valid = false
		}
		for _, n := range memo.Nodes() {
			if len(n.containers) > 0 && n.memoHit(memoTick) {
				hits++
			}
		}
		got := tickDigest(memo, memo.Advance(now, memoTick), km)
		want := tickDigest(full, full.Advance(now, memoTick), kf)
		if got != want {
			t.Fatalf("tick %d: memoised physics diverged from full physics\nmemo:\n%s\nfull:\n%s", tick, got, want)
		}
	}
	if hits < 200 {
		t.Errorf("memo hits = %d, want the idle stretches to replay (>= 200)", hits)
	}
}

// TestNodeAdvanceAllocFree pins a warm occupied tick at zero allocations:
// an idle node replaying its memo, an idle node whose allocation flips
// every tick (a memo miss), and a node with requests in flight.
func TestNodeAdvanceAllocFree(t *testing.T) {
	cl, _ := NewHomogeneous(4, DefaultNodeConfig(""))
	idle := running("idle", memoSpec("idle", 0.2), resources.Vector{CPU: 1, MemMB: 256})
	flip := running("flip", memoSpec("flip", 0.2), resources.Vector{CPU: 1, MemMB: 256})
	busy := running("busy", memoSpec("busy", 0.2), resources.Vector{CPU: 1, MemMB: 256, NetMbps: 100})
	_ = cl.Node("node-0").AddContainer(idle)
	_ = cl.Node("node-1").AddContainer(flip)
	_ = cl.Node("node-2").AddContainer(busy)
	long := memoSpec("busy", 0.2)
	long.CPUPerRequest, long.Timeout = 1e6, 1e6*time.Second
	for i := uint64(0); i < 4; i++ {
		busy.Enqueue(workload.NewRequest(i, long, 0))
	}
	now := time.Duration(0)
	tick := func() {
		flip.Alloc.CPU = 3 - flip.Alloc.CPU // 1 ↔ 2
		cl.Advance(now, memoTick)
		now += memoTick
	}
	tick()
	tick()
	if !cl.Node("node-0").memoHit(memoTick) {
		t.Fatal("setup: idle node does not hit its memo")
	}
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Errorf("warm occupied tick allocates %v times, want 0", allocs)
	}
	if busy.Inflight() != 4 {
		t.Fatalf("setup: busy node drained (%d in flight)", busy.Inflight())
	}
}

// TestOccupiedTracksPlacements checks the occupancy cache on one cluster
// and on a view that adopts its nodes: placements, removals, node removal
// and re-adoption must all show up in Occupied, in node order.
func TestOccupiedTracksPlacements(t *testing.T) {
	cl, _ := NewHomogeneous(4, DefaultNodeConfig(""))
	view, _ := New()
	for _, n := range cl.Nodes()[1:] {
		if err := view.AdoptNode(n); err != nil {
			t.Fatal(err)
		}
	}
	ids := func(nodes []*Node) string {
		s := ""
		for _, n := range nodes {
			s += n.ID() + " "
		}
		return s
	}
	check := func(step string, want, wantView string) {
		t.Helper()
		if got := ids(cl.Occupied()); got != want {
			t.Errorf("%s: Occupied = %q, want %q", step, got, want)
		}
		if got := ids(view.Occupied()); got != wantView {
			t.Errorf("%s: view Occupied = %q, want %q", step, got, wantView)
		}
	}
	check("empty", "", "")
	_ = cl.Node("node-2").AddContainer(running("a", testSpec(), resources.Vector{CPU: 1}))
	_ = cl.Node("node-0").AddContainer(running("b", testSpec(), resources.Vector{CPU: 1}))
	check("placed", "node-0 node-2 ", "node-2 ")
	_ = cl.Node("node-2").AddContainer(running("c", testSpec(), resources.Vector{CPU: 1}))
	cl.Node("node-2").RemoveContainer("a")
	check("churn", "node-0 node-2 ", "node-2 ")
	n3 := cl.Node("node-3")
	_ = n3.AddContainer(running("d", testSpec(), resources.Vector{CPU: 1}))
	view.ReleaseNode("node-3")
	check("released", "node-0 node-2 node-3 ", "node-2 ")
	if err := view.AdoptNode(n3); err != nil {
		t.Fatal(err)
	}
	check("readopted", "node-0 node-2 node-3 ", "node-2 node-3 ")
	if _, err := cl.RemoveNode("node-2"); err != nil {
		t.Fatal(err)
	}
	check("failed", "node-0 node-3 ", "node-3 ")
	foreign, _ := NewNode(DefaultNodeConfig("foreign"))
	if err := view.AdoptNode(foreign); err == nil {
		t.Error("view adopted a node from another cluster's pool")
	}
}
