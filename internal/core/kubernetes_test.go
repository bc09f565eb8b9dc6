package core

import (
	"testing"
	"time"

	"hyscale/internal/resources"
)

// makeSnapshot builds a one-service snapshot with the given replica
// utilizations (usage = util * requested CPU of 1.0) on distinct nodes.
func makeSnapshot(now time.Duration, info ServiceInfo, utils []float64) Snapshot {
	snap := Snapshot{Now: now}
	svc := ServiceStats{Info: info}
	for i, u := range utils {
		nodeID := nodeName(i)
		svc.Replicas = append(svc.Replicas, ReplicaStats{
			ContainerID: info.Name + "-" + nodeID,
			NodeID:      nodeID,
			Requested:   resources.Vector{CPU: 1, MemMB: 512, NetMbps: 100},
			Usage:       resources.Vector{CPU: u, MemMB: 300, NetMbps: u * 100},
			Routable:    true,
		})
	}
	snap.Services = []ServiceStats{svc}
	for i := 0; i < 8; i++ {
		ns := NodeStats{
			ID:        nodeName(i),
			Capacity:  resources.Vector{CPU: 4, MemMB: 8192, NetMbps: 1000},
			Available: resources.Vector{CPU: 3, MemMB: 7000, NetMbps: 900},
		}
		if i < len(utils) {
			ns.Hosts = []string{info.Name}
		}
		snap.Nodes = append(snap.Nodes, ns)
	}
	snap.IndexHosts()
	return snap
}

func nodeName(i int) string { return string(rune('A' + i)) }

func info() ServiceInfo {
	return ServiceInfo{
		Name: "svc", MinReplicas: 1, MaxReplicas: 6, TargetUtil: 0.5,
		BaselineMemMB: 300,
		InitialAlloc:  resources.Vector{CPU: 1, MemMB: 512},
	}
}

func countActions(p Plan) (outs, ins, verts int) {
	for _, a := range p.Actions {
		switch a.Kind {
		case ScaleOut:
			outs++
		case ScaleIn:
			ins++
		case VerticalScale:
			verts++
		}
	}
	return
}

func TestK8sScalesUpOnHighUtilization(t *testing.T) {
	k := NewKubernetes(DefaultConfig())
	// Two replicas at 150% utilization: want ceil(3.0/0.5) = 6 replicas.
	snap := makeSnapshot(time.Minute, info(), []float64{1.5, 1.5})
	plan := k.Decide(snap)
	outs, ins, verts := countActions(plan)
	if outs != 4 || ins != 0 || verts != 0 {
		t.Fatalf("actions = %d out / %d in / %d vert, want 4/0/0", outs, ins, verts)
	}
}

func TestK8sScalesDownOnLowUtilization(t *testing.T) {
	k := NewKubernetes(DefaultConfig())
	// Four replicas at 10%: want ceil(0.4/0.5) = 1 replica.
	snap := makeSnapshot(time.Minute, info(), []float64{0.1, 0.1, 0.1, 0.1})
	plan := k.Decide(snap)
	outs, ins, _ := countActions(plan)
	if ins != 3 || outs != 0 {
		t.Fatalf("actions = %d out / %d in, want 0/3", outs, ins)
	}
	// Victims are the newest replicas (last in creation order).
	if si := plan.Actions[0]; si.Kind != ScaleIn || si.ContainerID != "svc-D" {
		t.Errorf("first victim = %+v, want newest (svc-D)", plan.Actions[0])
	}
}

func TestK8sToleranceBandSuppressesRescale(t *testing.T) {
	k := NewKubernetes(DefaultConfig())
	// avg util 0.54 -> |0.54/0.5 - 1| = 0.08 <= 0.1: hold.
	snap := makeSnapshot(time.Minute, info(), []float64{0.54, 0.54})
	if plan := k.Decide(snap); !plan.Empty() {
		t.Fatalf("expected empty plan inside tolerance, got %+v", plan.Actions)
	}
}

func TestK8sClampsToMaxReplicas(t *testing.T) {
	k := NewKubernetes(DefaultConfig())
	// util sum enormous, but max is 6 and we have 5: only 1 scale-out.
	snap := makeSnapshot(time.Minute, info(), []float64{3, 3, 3, 3, 3})
	outs, _, _ := countActions(k.Decide(snap))
	if outs != 1 {
		t.Fatalf("outs = %d, want 1 (clamped to max)", outs)
	}
}

func TestK8sEnforcesMinReplicas(t *testing.T) {
	k := NewKubernetes(DefaultConfig())
	in := info()
	in.MinReplicas = 2
	snap := makeSnapshot(time.Minute, in, []float64{0.5})
	outs, _, _ := countActions(k.Decide(snap))
	if outs != 1 {
		t.Fatalf("outs = %d, want 1 (min-replica enforcement)", outs)
	}
}

func TestK8sRemovesAboveMaxReplicas(t *testing.T) {
	k := NewKubernetes(DefaultConfig())
	in := info()
	in.MaxReplicas = 2
	snap := makeSnapshot(time.Minute, in, []float64{0.5, 0.5, 0.5})
	_, ins, _ := countActions(k.Decide(snap))
	if ins != 1 {
		t.Fatalf("ins = %d, want 1 (max-replica enforcement)", ins)
	}
}

func TestK8sScaleUpInterval(t *testing.T) {
	k := NewKubernetes(DefaultConfig())
	hot := []float64{1.5, 1.5}
	if plan := k.Decide(makeSnapshot(10*time.Second, info(), hot)); plan.Empty() {
		t.Fatal("first scale-up suppressed")
	}
	// 1 second later: inside the 3 s scale-up interval.
	if plan := k.Decide(makeSnapshot(11*time.Second, info(), hot)); !plan.Empty() {
		t.Fatal("scale-up not throttled inside interval")
	}
	// 4 seconds later: allowed again.
	if plan := k.Decide(makeSnapshot(14*time.Second, info(), hot)); plan.Empty() {
		t.Fatal("scale-up throttled past interval")
	}
}

func TestK8sScaleDownInterval(t *testing.T) {
	k := NewKubernetes(DefaultConfig())
	cold := []float64{0.1, 0.1, 0.1}
	if plan := k.Decide(makeSnapshot(time.Minute, info(), cold)); plan.Empty() {
		t.Fatal("first scale-down suppressed")
	}
	if plan := k.Decide(makeSnapshot(time.Minute+30*time.Second, info(), cold)); !plan.Empty() {
		t.Fatal("scale-down not throttled inside 50s interval")
	}
	if plan := k.Decide(makeSnapshot(2*time.Minute, info(), cold)); plan.Empty() {
		t.Fatal("scale-down throttled past interval")
	}
}

func TestK8sPlacesOnEmptiestNode(t *testing.T) {
	k := NewKubernetes(DefaultConfig())
	snap := makeSnapshot(time.Minute, info(), []float64{1.5})
	// Make node H clearly the emptiest.
	snap.Nodes[7].Available = resources.Vector{CPU: 4, MemMB: 8000, NetMbps: 1000}
	plan := k.Decide(snap)
	if len(plan.Actions) == 0 {
		t.Fatal("no actions")
	}
	if so := plan.Actions[0]; so.Kind != ScaleOut || so.NodeID != "H" {
		t.Errorf("first placement = %+v, want node H", plan.Actions[0])
	}
}

func TestK8sStopsPlacingWhenNothingFits(t *testing.T) {
	k := NewKubernetes(DefaultConfig())
	snap := makeSnapshot(time.Minute, info(), []float64{3, 3})
	for i := range snap.Nodes {
		snap.Nodes[i].Available = resources.Vector{} // cluster full
	}
	outs, _, _ := countActions(k.Decide(snap))
	if outs != 0 {
		t.Fatalf("outs = %d, want 0 (no node fits)", outs)
	}
}

func TestK8sZeroTargetIsNoop(t *testing.T) {
	k := NewKubernetes(DefaultConfig())
	in := info()
	in.TargetUtil = 0
	if plan := k.Decide(makeSnapshot(time.Minute, in, []float64{3})); !plan.Empty() {
		t.Fatal("zero target should disable scaling")
	}
}

func TestNetworkHPAUsesNetMetric(t *testing.T) {
	n := NewNetworkHPA(DefaultConfig())
	if n.Name() != "network" {
		t.Fatalf("Name = %q", n.Name())
	}
	// CPU util low (0.2) but net util high (usage = util*100 Mbps over
	// requested 100): makeSnapshot couples them, so craft manually.
	snap := makeSnapshot(time.Minute, info(), []float64{0.2})
	snap.Services[0].Replicas[0].Usage = resources.Vector{CPU: 0.2, MemMB: 300, NetMbps: 150}
	plan := n.Decide(snap)
	outs, _, _ := countActions(plan)
	if outs != 2 { // ceil(1.5/0.5)=3 wanted, have 1
		t.Fatalf("outs = %d, want 2 (net-driven)", outs)
	}

	// The CPU algorithm on the same snapshot scales down instead.
	k := NewKubernetes(DefaultConfig())
	plan = k.Decide(snap)
	_, ins, _ := countActions(plan)
	if ins != 0 {
		// 0.2 util with min 1 replica: want = ceil(0.4)=1, cur=1 -> no-op.
		t.Fatalf("cpu variant ins = %d, want 0", ins)
	}
	if len(plan.Actions) != 0 {
		t.Fatalf("cpu variant should not scale on net usage: %+v", plan.Actions)
	}
}

func TestK8sName(t *testing.T) {
	if NewKubernetes(DefaultConfig()).Name() != "kubernetes" {
		t.Error("name wrong")
	}
}

func TestK8sSkipsZeroRequestedReplicas(t *testing.T) {
	k := NewKubernetes(DefaultConfig())
	snap := makeSnapshot(time.Minute, info(), []float64{1.5, 1.5})
	snap.Services[0].Replicas[0].Requested = resources.Vector{} // divide-by-zero bait
	// Must not panic; only replica 1 contributes.
	_ = k.Decide(snap)
}
