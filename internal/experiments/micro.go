package experiments

import (
	"fmt"
	"strconv"
	"time"

	"hyscale/internal/lb"
	"hyscale/internal/platform"
	"hyscale/internal/resources"
	"hyscale/internal/runner"
	"hyscale/internal/workload"
)

// The §III microbenchmarks give a microservice an EQUAL TOTAL amount of a
// resource in every scenario and compare one big replica (vertical) against
// many small replicas spread over machines (horizontal), with a stress
// contender eating the rest of each machine — isolating the physical
// trade-offs the autoscaling algorithms later face.

// microRequests matches the paper's fixed client load of 640 requests.
const microRequests = 640

// Scenario labels of the Fig. 2 and Fig. 3 tables.
const (
	fig2Baseline     = "baseline (solo, full node)"
	fig2Vertical     = "vertical (half node + stress)"
	fig3Vertical     = "vertical (single machine)"
	horizontalStress = "horizontal + stress"
)

// microReplicas labels the horizontal replica counts of Fig. 2 and Fig. 3.
func microReplicas() []string { return []string{"1", "2", "4", "8", "16"} }

// microRunSpec compiles one §III scenario. The service's replica 0 lands on
// node-0 (where AddService deploys it) and replicas 1..n−1 are pinned one
// per node at the service's initial allocation; a copy of stress, when set,
// runs on every machine. The paper's fixed 640-request client injects over
// window after a 2 s warm-up, and drain lets the tail finish. The platform
// has one node per replica, no autoscaling (fixed allocations) and no base
// latency, since §III measures microservice execution time directly; callers
// set any other platform field on the returned spec.
func microRunSpec(opts Options, name string, svc workload.ServiceSpec, replicas int, window, drain time.Duration, stress *runner.StressSpec) runner.RunSpec {
	cfg := platform.DefaultConfig(opts.Seed)
	cfg.Nodes = replicas
	cfg.MonitorPeriod = 0
	cfg.BaseLatency = 0
	spec := runner.RunSpec{
		Name:       name,
		Seed:       opts.Seed,
		Platform:   cfg,
		Duration:   window + 2*time.Second,
		DrainExtra: drain,
		Services:   []runner.ServiceRun{{Spec: svc}},
		Inject:     []runner.InjectSpec{{At: 2 * time.Second, Window: window, Service: svc.Name, Count: microRequests}},
	}
	alloc := resources.Vector{CPU: svc.InitialReplicaCPU, MemMB: svc.InitialReplicaMemMB, NetMbps: svc.InitialReplicaNetMbps}
	for i := 1; i < replicas; i++ {
		spec.Pinned = append(spec.Pinned, runner.PinnedReplica{
			Service: svc.Name, Node: fmt.Sprintf("node-%d", i), Alloc: alloc,
		})
	}
	if stress != nil {
		for i := 0; i < replicas; i++ {
			s := *stress
			s.Node = fmt.Sprintf("node-%d", i)
			spec.Stress = append(spec.Stress, s)
		}
	}
	return spec
}

// cpuMicroSpec is the CPU-bound emulated microservice of §III-A, with
// cpuEach cores per replica.
func cpuMicroSpec(cpuEach float64) workload.ServiceSpec {
	return workload.ServiceSpec{
		Name: "cpu-micro", Kind: workload.KindCPUBound,
		CPUPerRequest:         0.25,
		CPUOverheadPerRequest: 0.02,
		BackgroundCPU:         0.015,
		MemPerRequest:         2,
		BaselineMemMB:         300,
		InitialReplicaCPU:     cpuEach, InitialReplicaMemMB: 1024,
		MinReplicas: 1, MaxReplicas: 16,
		Timeout: 10 * time.Minute,
	}
}

// ContentionOverheadPercent is the §III-A headline of a Fig. 2 grid: the
// response-time increase of the vertical scenario over the uncontended
// baseline (the paper measured 17 %).
func ContentionOverheadPercent(fig2 *Grid) float64 {
	base, vertical := fig2.Row(fig2Baseline, "1"), fig2.Row(fig2Vertical, "1")
	if base == nil || vertical == nil || base.Summary.MeanLatency <= 0 {
		return 0
	}
	return 100 * (float64(vertical.Summary.MeanLatency)/float64(base.Summary.MeanLatency) - 1)
}

// RunFig2 reproduces Figure 2: 640 requests against a CPU-bound service
// with equal total CPU (half of one node's cores) split across 1..16
// replicas on as many machines, each machine shared with a CPU stress
// container holding the remaining shares. The table closes with the
// contention overhead row.
func RunFig2(opts Options) (*Grid, error) {
	opts = opts.scaled()
	g, cells, compile := fig2Grid(opts)
	return requireCompleted(g.run(cells, compile, opts))
}

// fig2Grid lays out the seven Fig-2 scenarios. Baseline: whole node to
// itself. Vertical: half the node, stress takes the other half. Horizontal:
// the same 2 cores split over R machines; on each machine the stress
// container holds the remaining shares so the service's total CPU access
// time stays constant (the paper's share arithmetic).
func fig2Grid(opts Options) (*Grid, [][]string, func([]string) runner.RunSpec) {
	g := &Grid{
		Title:   "Figure 2: response times of horizontal scaling for the CPU tests (equal total CPU)",
		Axes:    []string{"scenario", "replicas"},
		columns: []column{meanColumn},
		table: func(g *Grid) *Table {
			t := g.render()
			t.AddRow("contention overhead", "-", fmt.Sprintf("%.1f%%", ContentionOverheadPercent(g)))
			return t
		},
	}
	cells := append([][]string{{fig2Baseline, "1"}, {fig2Vertical, "1"}},
		product([]string{horizontalStress}, microReplicas())...)
	return g, cells, func(l []string) runner.RunSpec {
		name, replicas, cpuEach, stressCPU := "baseline", 1, 4.0, 0.0
		switch l[0] {
		case fig2Vertical:
			name, cpuEach, stressCPU = "vertical", 2, 2
		case horizontalStress:
			replicas, _ = strconv.Atoi(l[1])
			cpuEach = 2.0 / float64(replicas)
			name, stressCPU = "horizontal-"+l[1], 4-cpuEach
		}
		var stress *runner.StressSpec
		if stressCPU > 0 {
			stress = &runner.StressSpec{Alloc: resources.Vector{CPU: stressCPU, MemMB: 64}, CPUDemand: 4}
		}
		// 640 requests at ~85 % of the vertical scenario's service capacity.
		spec := microRunSpec(opts, "fig2/"+name, cpuMicroSpec(cpuEach), replicas, 120*time.Second, 15*time.Minute, stress)
		spec.Platform.LBPolicy = lb.LeastOutstanding
		return spec
	}
}

// RunMemScaling reproduces the §III-B experiment: a memory-bound service
// with equal TOTAL memory in every scenario (one 512 MB container ≡ two
// 256 MB containers, and so on). Horizontal replicas each pay the
// application's baseline memory again, so they hit the swap cliff earlier —
// the paper's key memory observation. Deep swap can time every request out;
// the table then reports a 0 mean with the failure share rather than
// erroring (the cliff IS the result).
func RunMemScaling(opts Options) (*Grid, error) {
	opts = opts.scaled()
	type split struct {
		replicas int
		memEach  float64
	}
	labels, splitOf := axisOf([]split{{1, 512}, {2, 256}, {4, 128}}, func(s split) string {
		return fmt.Sprintf("%dx%.0fMB", s.replicas, s.memEach)
	})
	g := &Grid{
		Title:   "§III-B: memory scaling, equal total memory (vertical vs horizontal)",
		Axes:    []string{"scenario"},
		columns: []column{meanColumn, failedColumn},
	}
	return g.run(product(labels), func(l []string) runner.RunSpec {
		s := splitOf[l[0]]
		svc := workload.ServiceSpec{
			Name: "mem-micro", Kind: workload.KindMemoryBound,
			CPUPerRequest:         0.05,
			CPUOverheadPerRequest: 0.01,
			MemPerRequest:         24,
			BaselineMemMB:         110,
			InitialReplicaCPU:     2, InitialReplicaMemMB: s.memEach,
			MinReplicas: 1, MaxReplicas: 8,
			Timeout: 60 * time.Second,
		}
		return microRunSpec(opts, "mem/"+l[0], svc, s.replicas, 60*time.Second, 15*time.Minute, nil)
	}, opts)
}

// netMicroSpec is the iperf-like network-bound service of §III-C: payloadMb
// megabits per request under a tc cap of capEach Mbps per replica.
func netMicroSpec(name string, payloadMb, capEach float64) workload.ServiceSpec {
	return workload.ServiceSpec{
		Name: name, Kind: workload.KindNetworkBound,
		CPUPerRequest:         0.005,
		CPUOverheadPerRequest: 0.005,
		MemPerRequest:         1,
		NetPerRequest:         payloadMb,
		BaselineMemMB:         80,
		InitialReplicaCPU:     0.5, InitialReplicaMemMB: 256,
		InitialReplicaNetMbps: capEach,
		MinReplicas:           1, MaxReplicas: 16,
		Timeout: 10 * time.Minute,
	}
}

// netStress is the §III-C contender on every machine: it floods the NIC
// with 32 egress flows and hogs CPU.
func netStress() *runner.StressSpec {
	return &runner.StressSpec{Alloc: resources.Vector{CPU: 2, MemMB: 64}, CPUDemand: 2, NetFlows: 32}
}

// RunFig3 reproduces Figure 3: an iperf-like service with a 100 Mbps total
// egress allocation split across 1..16 machines, each machine also hosting
// a stress container that floods the NIC and hogs CPU. Horizontal scaling
// relieves per-node tx-queue contention until the per-replica tc slice
// becomes the bottleneck (~8 replicas). The vertical scenario keeps the
// full cap on one machine (re-splitting it there changes nothing, per
// §III-C).
func RunFig3(opts Options) (*Grid, error) {
	opts = opts.scaled()
	g := &Grid{
		Title:   "Figure 3: response times of horizontal scaling for the network tests (100 Mbps total)",
		Axes:    []string{"scenario", "replicas"},
		columns: []column{meanColumn},
	}
	cells := append([][]string{{fig3Vertical, "1"}}, product([]string{horizontalStress}, microReplicas())...)
	return requireCompleted(g.run(cells, func(l []string) runner.RunSpec {
		name, replicas := "fig3/vertical", 1
		if l[0] == horizontalStress {
			replicas, _ = strconv.Atoi(l[1])
			name = "fig3/horizontal-" + l[1]
		}
		svc := netMicroSpec("net-micro", 10, 100/float64(replicas))
		spec := microRunSpec(opts, name, svc, replicas, 160*time.Second, 20*time.Minute, netStress())
		spec.Platform.DistributionOverhead = 0 // the paper's iperf test measures pure transfer
		return spec
	}, opts))
}
