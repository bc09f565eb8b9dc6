package runner

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hyscale/internal/core"
	"hyscale/internal/resources"
	"hyscale/internal/scalermgr"
)

// TestPlanGoldens pins every algorithm spelling's plans over one seeded
// sequence of synthetic snapshots. The snapshots are built to reach the
// planner's edge cases: replicas on nodes missing from the snapshot (stats
// dropped, limbo), non-routable replicas, TargetUtil 0, MinReplicas 0,
// services above their maximum and below their minimum, nodes that fit
// nothing, and exact ties in available CPU. Regenerate deliberately with
//
//	UPDATE_GOLDEN=1 go test ./internal/runner -run TestPlanGoldens
func TestPlanGoldens(t *testing.T) {
	spread, binpack := core.DefaultConfig(), core.DefaultConfig()
	binpack.Placement = core.PlacementBinPack
	slo := &scalermgr.Config{
		Retention: 30 * time.Second,
		Services:  []scalermgr.ServiceTargets{{Service: "slo", SLOMs: 250}},
	}
	cases := []struct {
		label, name string
		cfg         core.Config
		mgr         *scalermgr.Config
	}{
		{"kubernetes", "kubernetes", spread, nil},
		{"kubernetes-binpack", "kubernetes", binpack, nil},
		{"network", "network", spread, nil},
		{"hybrid", "hybrid", spread, nil},
		{"hybrid-noreclaim", "hybrid-noreclaim", spread, nil},
		{"hybrid-vertical-only", "hybrid-vertical-only", spread, nil},
		{"hybrid-horizontal-only", "hybrid-horizontal-only", spread, nil},
		{"hybridmem", "hybridmem", spread, nil},
		{"hybridmem-noreclaim", "hybridmem-noreclaim", spread, nil},
		{"hybridmem-vertical-only", "hybridmem-vertical-only", spread, nil},
		{"hybridmem-horizontal-only", "hybridmem-horizontal-only", spread, nil},
		{"hybridmem-binpack", "hybridmem", binpack, nil},
		{"manager", "manager", spread, nil},
		{"manager-binpack", "manager", binpack, nil},
		{"manager-cost-slo", "manager-cost", spread, slo},
		{"kubernetes-predictive", "kubernetes-predictive", spread, nil},
		{"hybridmem-predictive", "hybridmem-predictive", spread, nil},
		{"manager-cost-slo-predictive", "manager-cost-predictive", spread, slo},
	}
	for _, c := range cases {
		t.Run(c.label, func(t *testing.T) {
			algo, err := NewAlgorithmManaged(c.name, c.cfg, c.mgr)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			fmt.Fprintf(&b, "algorithm %s\n", algo.Name())
			for _, snap := range planSnapshots() {
				writePlan(&b, snap, algo.Decide(snap))
			}
			got := b.String()
			path := filepath.Join("testdata", "plan_"+c.label+".txt")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
			}
			if string(want) != got {
				t.Fatalf("%s plans diverged from %s:\n%s", c.label, path, firstDiff(string(want), got))
			}
		})
	}
}

// writePlan renders the plan decided from snap, one action per line, with
// every float printed in its shortest exact form and a scale-out's service
// ordinal mapped back to its name.
func writePlan(b *strings.Builder, snap core.Snapshot, p core.Plan) {
	fmt.Fprintf(b, "t=%v actions=%d\n", snap.Now, len(p.Actions))
	for _, a := range p.Actions {
		switch a.Kind {
		case core.ScaleOut:
			name := "?"
			for _, s := range snap.Services {
				if s.Info.Ord == int(a.Svc)-1 {
					name = s.Info.Name
				}
			}
			fmt.Fprintf(b, "  out %s -> %s %s\n", name, a.NodeID, exact(a.Alloc))
		case core.ScaleIn:
			fmt.Fprintf(b, "  in %s\n", a.ContainerID)
		case core.VerticalScale:
			fmt.Fprintf(b, "  vertical %s %s\n", a.ContainerID, exact(a.Alloc))
		default:
			fmt.Fprintf(b, "  unknown kind %d\n", a.Kind)
		}
	}
}

// exact prints a vector's components in their shortest round-trip form;
// Vector.String rounds.
func exact(v resources.Vector) string {
	return fmt.Sprintf("cpu=%v mem=%v net=%v", v.CPU, v.MemMB, v.NetMbps)
}

// firstDiff reports the first differing line of two renderings.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "identical"
}

// planSnapshots builds the seeded snapshot sequence afresh on every call, so
// an algorithm that rewrites its input (the predictive wrapper does) cannot
// leak into the next case.
func planSnapshots() []core.Snapshot {
	rng := rand.New(rand.NewSource(32))
	// Ords run opposite to list order, so a planner that keys its memory
	// by snapshot index instead of Ord diverges once services move.
	infos := []core.ServiceInfo{
		{Name: "api", Ord: 5, MinReplicas: 1, MaxReplicas: 6, TargetUtil: 0.5, BaselineMemMB: 200,
			InitialAlloc: resources.Vector{CPU: 1, MemMB: 512, NetMbps: 100}},
		{Name: "cache", Ord: 4, MinReplicas: 0, MaxReplicas: 4, TargetUtil: 0.6, BaselineMemMB: 600,
			InitialAlloc: resources.Vector{CPU: 0.5, MemMB: 1024, NetMbps: 50}},
		{Name: "batch", Ord: 3, MinReplicas: 2, MaxReplicas: 5, TargetUtil: 0, BaselineMemMB: 300,
			InitialAlloc: resources.Vector{CPU: 1.5, MemMB: 768, NetMbps: 20}},
		{Name: "edge", Ord: 2, MinReplicas: 1, MaxReplicas: 3, TargetUtil: 0.5, BaselineMemMB: 100,
			InitialAlloc: resources.Vector{CPU: 0.5, MemMB: 256, NetMbps: 300}},
		{Name: "db", Ord: 1, MinReplicas: 2, MaxReplicas: 4, TargetUtil: 0.7, BaselineMemMB: 1500,
			InitialAlloc: resources.Vector{CPU: 2, MemMB: 2048, NetMbps: 100}},
		{Name: "slo", Ord: 0, MinReplicas: 1, MaxReplicas: 8, TargetUtil: 0.5, BaselineMemMB: 250,
			InitialAlloc: resources.Vector{CPU: 1, MemMB: 512, NetMbps: 100}},
	}
	const nodes = 8
	nodeID := func(i int) string { return fmt.Sprintf("n%d", i) }
	cpuSteps := []float64{0, 0.2, 0.5, 1, 1, 1.5, 2, 3, 4}
	memSteps := []float64{128, 1024, 2048, 4096, 8192}
	netSteps := []float64{0, 200, 1000}
	reqCPU := []float64{0, 0.25, 0.5, 1, 2}

	var out []core.Snapshot
	now := time.Duration(0)
	for step := 0; step < 40; step++ {
		now += 5 * time.Second
		if step%9 == 8 {
			now += 15 * time.Second // a gap wider than the manager's freshness bound
		}
		snap := core.Snapshot{Now: now}
		present := make([]bool, nodes)
		for i := range present {
			present[i] = rng.Float64() >= 0.1
		}
		hosts := make([][]string, nodes)
		for _, info := range infos {
			svc := core.ServiceStats{Info: info}
			k := rng.Intn(info.MaxReplicas + 3)
			for j := 0; j < k; j++ {
				node := rng.Intn(nodes + 1)
				id := "gone"
				if node < nodes {
					id = nodeID(node)
					if present[node] {
						hosts[node] = appendUnique(hosts[node], info.Name)
					}
				}
				req := resources.Vector{
					CPU:     reqCPU[rng.Intn(len(reqCPU))],
					MemMB:   info.BaselineMemMB + float64(rng.Intn(4))*256,
					NetMbps: float64(50 + rng.Intn(4)*50),
				}
				use := resources.Vector{
					CPU:     req.CPU*rng.Float64()*1.6 + float64(rng.Intn(2))*0.05,
					MemMB:   info.BaselineMemMB*(0.8+rng.Float64()*0.3) + rng.Float64()*float64(rng.Intn(3))*300,
					NetMbps: req.NetMbps * rng.Float64() * 1.5,
				}
				svc.Replicas = append(svc.Replicas, core.ReplicaStats{
					ContainerID: fmt.Sprintf("%s-%d", info.Name, j),
					NodeID:      id,
					Requested:   req,
					Usage:       use,
					Routable:    rng.Float64() >= 0.15,
					Inflight:    rng.Intn(12),
				})
			}
			snap.Services = append(snap.Services, svc)
		}
		for i := 0; i < nodes; i++ {
			avail := resources.Vector{
				CPU:     cpuSteps[rng.Intn(len(cpuSteps))],
				MemMB:   memSteps[rng.Intn(len(memSteps))],
				NetMbps: netSteps[rng.Intn(len(netSteps))],
			}
			if !present[i] {
				continue
			}
			snap.Nodes = append(snap.Nodes, core.NodeStats{
				ID:        nodeID(i),
				Capacity:  resources.Vector{CPU: 8, MemMB: 16384, NetMbps: 1000},
				Available: avail,
				Hosts:     hosts[i],
			})
		}
		snap.IndexHosts()
		out = append(out, snap)
	}
	return out
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}
