package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"hyscale/internal/resources"
)

// hySnapshot builds a snapshot with explicit usage/requested vectors.
func hySnapshot(now time.Duration, in ServiceInfo, replicas []ReplicaStats, nodeAvail map[string]resources.Vector) Snapshot {
	snap := Snapshot{Now: now, Services: []ServiceStats{{Info: in, Replicas: replicas}}}
	hosted := make(map[string][]string)
	for _, r := range replicas {
		hosted[r.NodeID] = append(hosted[r.NodeID], in.Name)
	}
	for id, avail := range nodeAvail {
		snap.Nodes = append(snap.Nodes, NodeStats{
			ID:        id,
			Capacity:  resources.Vector{CPU: 4, MemMB: 8192, NetMbps: 1000},
			Available: avail,
			Hosts:     uniq(hosted[id]),
		})
	}
	// Deterministic node order.
	for i := 0; i < len(snap.Nodes); i++ {
		for j := i + 1; j < len(snap.Nodes); j++ {
			if snap.Nodes[j].ID < snap.Nodes[i].ID {
				snap.Nodes[i], snap.Nodes[j] = snap.Nodes[j], snap.Nodes[i]
			}
		}
	}
	snap.IndexHosts()
	return snap
}

func uniq(in []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func rep(id, node string, reqCPU, useCPU, reqMem, useMem float64) ReplicaStats {
	return ReplicaStats{
		ContainerID: id, NodeID: node, Routable: true,
		Requested: resources.Vector{CPU: reqCPU, MemMB: reqMem},
		Usage:     resources.Vector{CPU: useCPU, MemMB: useMem},
	}
}

func findVertical(p Plan, id string) (Action, bool) {
	for _, a := range p.Actions {
		if v := a; v.Kind == VerticalScale && v.ContainerID == id {
			return v, true
		}
	}
	return Action{}, false
}

func TestHyScaleVerticalAcquisition(t *testing.T) {
	h := NewHyScaleCPU(DefaultConfig())
	in := info()
	// One replica: requested 1 CPU, using 1 CPU at target 0.5 →
	// Required = 1/(0.5*0.9) − 1 = 1.222; node has plenty.
	snap := hySnapshot(time.Minute, in,
		[]ReplicaStats{rep("r0", "A", 1, 1.0, 512, 300)},
		map[string]resources.Vector{"A": {CPU: 3, MemMB: 7000}})
	plan := h.Decide(snap)
	v, ok := findVertical(plan, "r0")
	if !ok {
		t.Fatalf("no vertical action: %+v", plan.Actions)
	}
	want := 1 + (1.0/(0.5*0.9) - 1)
	if math.Abs(v.Alloc.CPU-want) > 1e-9 {
		t.Errorf("Alloc.CPU = %v, want %v", v.Alloc.CPU, want)
	}
	outs, ins, _ := countActions(plan)
	if outs != 0 || ins != 0 {
		t.Errorf("unexpected horizontal actions: %d out, %d in", outs, ins)
	}
}

func TestHyScaleAcquisitionCappedByNodeAvailability(t *testing.T) {
	h := NewHyScaleCPU(DefaultConfig())
	in := info()
	in.MaxReplicas = 1 // forbid horizontal fallback
	snap := hySnapshot(time.Minute, in,
		[]ReplicaStats{rep("r0", "A", 1, 1.0, 512, 300)},
		map[string]resources.Vector{"A": {CPU: 0.4, MemMB: 7000}})
	plan := h.Decide(snap)
	v, ok := findVertical(plan, "r0")
	if !ok {
		t.Fatalf("no vertical action: %+v", plan.Actions)
	}
	if math.Abs(v.Alloc.CPU-1.4) > 1e-9 {
		t.Errorf("Alloc.CPU = %v, want 1.4 (AvailableCPUs bound)", v.Alloc.CPU)
	}
}

func TestHyScaleHorizontalFallbackToNonHostingNode(t *testing.T) {
	h := NewHyScaleCPU(DefaultConfig())
	in := info()
	// Node A is full; the deficit must go to a node NOT hosting the service.
	snap := hySnapshot(time.Minute, in,
		[]ReplicaStats{rep("r0", "A", 1, 2.0, 512, 300)},
		map[string]resources.Vector{
			"A": {CPU: 0, MemMB: 7000},
			"B": {CPU: 4, MemMB: 8000},
		})
	plan := h.Decide(snap)
	outs, _, _ := countActions(plan)
	if outs != 1 {
		t.Fatalf("outs = %d, want 1; plan %+v", outs, plan.Actions)
	}
	for _, a := range plan.Actions {
		if so := a; so.Kind == ScaleOut {
			if so.NodeID != "B" {
				t.Errorf("scale-out to %s, want B (A already hosts)", so.NodeID)
			}
			if so.Alloc.CPU < h.cfg.MinScaleOutCPU {
				t.Errorf("scale-out CPU %v below minimum", so.Alloc.CPU)
			}
			if so.Alloc.MemMB <= 0 {
				t.Error("scale-out with no memory")
			}
		}
	}
}

func TestHyScaleNoScaleOutWithoutBaselineMemory(t *testing.T) {
	h := NewHyScaleCPU(DefaultConfig())
	in := info() // baseline 300, initial mem 512
	snap := hySnapshot(time.Minute, in,
		[]ReplicaStats{rep("r0", "A", 1, 2.0, 512, 300)},
		map[string]resources.Vector{
			"A": {CPU: 0, MemMB: 7000},
			"B": {CPU: 4, MemMB: 200}, // plenty CPU, not enough memory
		})
	outs, _, _ := countActions(h.Decide(snap))
	if outs != 0 {
		t.Fatal("scaled out onto node without baseline memory")
	}
}

func TestHyScaleNoScaleOutBelowCPUThreshold(t *testing.T) {
	h := NewHyScaleCPU(DefaultConfig())
	in := info()
	snap := hySnapshot(time.Minute, in,
		[]ReplicaStats{rep("r0", "A", 1, 2.0, 512, 300)},
		map[string]resources.Vector{
			"A": {CPU: 0, MemMB: 7000},
			"B": {CPU: 0.2, MemMB: 8000}, // below the 0.25 CPU minimum
		})
	outs, _, _ := countActions(h.Decide(snap))
	if outs != 0 {
		t.Fatal("scaled out onto node below the 0.25-CPU threshold")
	}
}

func TestHyScaleReclamation(t *testing.T) {
	h := NewHyScaleCPU(DefaultConfig())
	in := info()
	// Using 0.2 of 2 requested at target 0.5: over-provisioned.
	snap := hySnapshot(time.Minute, in,
		[]ReplicaStats{rep("r0", "A", 2, 0.2, 512, 300)},
		map[string]resources.Vector{"A": {CPU: 1, MemMB: 7000}})
	plan := h.Decide(snap)
	v, ok := findVertical(plan, "r0")
	if !ok {
		t.Fatalf("no reclamation: %+v", plan.Actions)
	}
	// Reclaimable = 2 − 0.2/0.45 = 1.556, but bounded by the deficit
	// −Missing = (2*0.5 − 0.2)/0.5 = 1.6 → reclaim 1.556.
	want := 0.2 / 0.45
	if math.Abs(v.Alloc.CPU-want) > 1e-9 {
		t.Errorf("Alloc.CPU = %v, want %v", v.Alloc.CPU, want)
	}
}

func TestHyScaleRemovesTinyReplica(t *testing.T) {
	h := NewHyScaleCPU(DefaultConfig())
	in := info()
	// Two replicas, one nearly idle: its want = 0.01/0.45 ≈ 0.022 < 0.1.
	snap := hySnapshot(time.Minute, in,
		[]ReplicaStats{
			rep("r0", "A", 1, 0.45, 512, 300),
			rep("r1", "B", 1, 0.01, 512, 300),
		},
		map[string]resources.Vector{"A": {CPU: 2, MemMB: 7000}, "B": {CPU: 2, MemMB: 7000}})
	plan := h.Decide(snap)
	removed := false
	for _, a := range plan.Actions {
		if si := a; si.Kind == ScaleIn && si.ContainerID == "r1" {
			removed = true
		}
	}
	if !removed {
		t.Fatalf("idle replica not removed: %+v", plan.Actions)
	}
}

func TestHyScaleKeepsMinReplicas(t *testing.T) {
	h := NewHyScaleCPU(DefaultConfig())
	in := info() // min 1
	snap := hySnapshot(time.Minute, in,
		[]ReplicaStats{rep("r0", "A", 1, 0.001, 512, 300)},
		map[string]resources.Vector{"A": {CPU: 2, MemMB: 7000}})
	plan := h.Decide(snap)
	_, ins, _ := countActions(plan)
	if ins != 0 {
		t.Fatal("removed the last replica below MinReplicas")
	}
}

func TestHyScaleCPUMemRemovalRequiresBothThresholds(t *testing.T) {
	h := NewHyScaleCPUMem(DefaultConfig())
	in := info()
	// CPU idle but memory busy: HYSCALE_CPU+Mem must NOT remove (§IV-B2
	// requires CPU and memory conditions mutually).
	snap := hySnapshot(time.Minute, in,
		[]ReplicaStats{
			rep("r0", "A", 1, 0.45, 512, 300),
			rep("r1", "B", 1, 0.01, 512, 500), // mem-busy: want 500/0.45 >> baseline
		},
		map[string]resources.Vector{"A": {CPU: 2, MemMB: 7000}, "B": {CPU: 2, MemMB: 7000}})
	plan := h.Decide(snap)
	for _, a := range plan.Actions {
		if si := a; si.Kind == ScaleIn && si.ContainerID == "r1" {
			t.Fatal("memory-busy replica removed by CPU+Mem variant")
		}
	}

	// The CPU-only variant removes it regardless of memory.
	hc := NewHyScaleCPU(DefaultConfig())
	plan = hc.Decide(snap)
	removed := false
	for _, a := range plan.Actions {
		if si := a; si.Kind == ScaleIn && si.ContainerID == "r1" {
			removed = true
		}
	}
	if !removed {
		t.Fatal("CPU-only variant kept the CPU-idle replica")
	}
}

func TestHyScaleCPUMemVerticalMemoryAcquisition(t *testing.T) {
	h := NewHyScaleCPUMem(DefaultConfig())
	in := info()
	// Memory pressure: using 600 of 512 at target 0.5.
	snap := hySnapshot(time.Minute, in,
		[]ReplicaStats{rep("r0", "A", 1, 0.4, 512, 600)},
		map[string]resources.Vector{"A": {CPU: 3, MemMB: 7000}})
	plan := h.Decide(snap)
	v, ok := findVertical(plan, "r0")
	if !ok {
		t.Fatalf("no vertical action: %+v", plan.Actions)
	}
	if v.Alloc.MemMB <= 512 {
		t.Errorf("memory not scaled up: %v", v.Alloc.MemMB)
	}
}

func TestHyScaleCPUIgnoresMemory(t *testing.T) {
	h := NewHyScaleCPU(DefaultConfig())
	in := info()
	snap := hySnapshot(time.Minute, in,
		[]ReplicaStats{rep("r0", "A", 1, 0.45, 512, 5000)}, // deep memory pressure
		map[string]resources.Vector{"A": {CPU: 3, MemMB: 7000}})
	plan := h.Decide(snap)
	if v, ok := findVertical(plan, "r0"); ok && v.Alloc.MemMB != 512 {
		t.Errorf("CPU-only variant changed memory: %v", v.Alloc.MemMB)
	}
}

func TestHyScaleMemReclamationFloorsAtBaseline(t *testing.T) {
	h := NewHyScaleCPUMem(DefaultConfig())
	in := info() // baseline 300
	// Memory barely used: reclamation must not go below baseline*(1+headroom).
	snap := hySnapshot(time.Minute, in,
		[]ReplicaStats{
			rep("r0", "A", 1, 0.45, 2048, 310),
			rep("r1", "B", 1, 0.45, 2048, 310),
		},
		map[string]resources.Vector{"A": {CPU: 2, MemMB: 6000}, "B": {CPU: 2, MemMB: 6000}})
	plan := h.Decide(snap)
	floor := 300 * (1 + h.cfg.MemHeadroom)
	for _, a := range plan.Actions {
		if v := a; v.Kind == VerticalScale {
			if v.Alloc.MemMB < floor-1e-9 {
				t.Errorf("memory reclaimed below baseline floor: %v < %v", v.Alloc.MemMB, floor)
			}
		}
	}
}

func TestHyScaleHorizontalGateThrottlesOnlyHorizontal(t *testing.T) {
	h := NewHyScaleCPU(DefaultConfig())
	in := info()
	nodes := map[string]resources.Vector{
		"A": {CPU: 0, MemMB: 7000},
		"B": {CPU: 4, MemMB: 8000},
		"C": {CPU: 4, MemMB: 8000},
	}
	hot := []ReplicaStats{rep("r0", "A", 1, 2.0, 512, 300)}

	plan := h.Decide(hySnapshot(10*time.Second, in, hot, nodes))
	outs, _, _ := countActions(plan)
	if outs == 0 {
		t.Fatal("first horizontal scale-out suppressed")
	}

	// 1s later (inside 3s gate): horizontal suppressed, vertical NOT.
	nodes2 := map[string]resources.Vector{
		"A": {CPU: 1, MemMB: 7000}, // some vertical headroom appeared
		"B": {CPU: 4, MemMB: 8000},
		"C": {CPU: 4, MemMB: 8000},
	}
	plan = h.Decide(hySnapshot(11*time.Second, in, hot, nodes2))
	outs, _, verts := countActions(plan)
	if outs != 0 {
		t.Error("horizontal not throttled inside gate")
	}
	if verts == 0 {
		t.Error("vertical scaling wrongly throttled (must be exempt)")
	}
}

func TestHyScaleEnforcesBounds(t *testing.T) {
	h := NewHyScaleCPU(DefaultConfig())
	in := info()
	in.MinReplicas = 2
	snap := hySnapshot(time.Minute, in,
		[]ReplicaStats{rep("r0", "A", 1, 0.45, 512, 300)},
		map[string]resources.Vector{"A": {CPU: 2, MemMB: 7000}, "B": {CPU: 4, MemMB: 8000}})
	plan := h.Decide(snap)
	outs, _, _ := countActions(plan)
	if outs != 1 {
		t.Fatalf("outs = %d, want 1 (min-replica enforcement)", outs)
	}

	in2 := info()
	in2.MaxReplicas = 1
	snap = hySnapshot(time.Minute, in2,
		[]ReplicaStats{
			rep("r0", "A", 1, 0.45, 512, 300),
			rep("r1", "B", 1, 0.45, 512, 300),
		},
		map[string]resources.Vector{"A": {CPU: 2, MemMB: 7000}, "B": {CPU: 2, MemMB: 7000}})
	_, ins, _ := countActions(h.Decide(snap))
	if ins != 1 {
		t.Fatalf("ins = %d, want 1 (max-replica enforcement)", ins)
	}
}

func TestHyScaleBalancedServiceIsNoop(t *testing.T) {
	h := NewHyScaleCPU(DefaultConfig())
	in := info()
	// usage exactly requested*target: Missing = 0.
	snap := hySnapshot(time.Minute, in,
		[]ReplicaStats{rep("r0", "A", 1, 0.5, 512, 300)},
		map[string]resources.Vector{"A": {CPU: 2, MemMB: 7000}})
	// Missing=0 but per-replica Required = 0.5/0.45 − 1 = 0.11 > 0... the
	// deficit gate (cpu > eps) decides: (0.5−0.5)/0.5 = 0 → no-op.
	if plan := h.Decide(snap); !plan.Empty() {
		t.Fatalf("balanced service produced actions: %+v", plan.Actions)
	}
}

func TestHyScaleSkipsUnroutableReplicas(t *testing.T) {
	h := NewHyScaleCPU(DefaultConfig())
	in := info()
	starting := rep("r1", "B", 1, 0, 512, 0)
	starting.Routable = false
	snap := hySnapshot(time.Minute, in,
		[]ReplicaStats{rep("r0", "A", 1, 1.0, 512, 300), starting},
		map[string]resources.Vector{"A": {CPU: 3, MemMB: 7000}, "B": {CPU: 3, MemMB: 7000}})
	plan := h.Decide(snap)
	if _, ok := findVertical(plan, "r1"); ok {
		t.Fatal("vertical action on a starting replica")
	}
}

// Property test: over random snapshots, HyScale plans never emit negative
// allocations, never scale out onto hosting nodes, and never remove below
// MinReplicas.
func TestQuickHyScalePlanInvariants(t *testing.T) {
	cfgs := []*HyScale{NewHyScaleCPU(DefaultConfig()), NewHyScaleCPUMem(DefaultConfig())}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := info()
		in.MinReplicas = 1 + rng.Intn(2)
		in.MaxReplicas = in.MinReplicas + rng.Intn(5)

		nReplicas := 1 + rng.Intn(5)
		var reps []ReplicaStats
		hostedNodes := make(map[string]bool)
		for i := 0; i < nReplicas; i++ {
			node := nodeName(rng.Intn(6))
			hostedNodes[node] = true
			reps = append(reps, rep(
				"r"+nodeName(i), node,
				0.1+rng.Float64()*3, rng.Float64()*3,
				256+rng.Float64()*1024, rng.Float64()*1500,
			))
		}
		nodes := make(map[string]resources.Vector)
		for i := 0; i < 6; i++ {
			nodes[nodeName(i)] = resources.Vector{
				CPU:   rng.Float64() * 4,
				MemMB: rng.Float64() * 8192,
			}
		}
		snap := hySnapshot(time.Duration(rng.Intn(3600))*time.Second, in, reps, nodes)

		for _, h := range cfgs {
			plan := h.Decide(snap)
			removals := 0
			for _, a := range plan.Actions {
				switch act := a; act.Kind {
				case VerticalScale:
					if !act.Alloc.NonNegative() {
						return false
					}
				case ScaleOut:
					if !act.Alloc.NonNegative() {
						return false
					}
					for _, r := range reps {
						if r.NodeID == act.NodeID {
							return false // scaled onto a hosting node
						}
					}
				case ScaleIn:
					removals++
				}
			}
			if nReplicas-removals < in.MinReplicas && nReplicas >= in.MinReplicas {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHyScaleNames(t *testing.T) {
	if NewHyScaleCPU(DefaultConfig()).Name() != "hybrid" {
		t.Error("hybrid name wrong")
	}
	if NewHyScaleCPUMem(DefaultConfig()).Name() != "hybridmem" {
		t.Error("hybridmem name wrong")
	}
	if NewHyScaleCPUMem(DefaultConfig()).String() != "HyScale(memAware=true)" {
		t.Error("String wrong")
	}
}
