package experiments

import (
	"fmt"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/platform"
	"hyscale/internal/resources"
	"hyscale/internal/runner"
	"hyscale/internal/workload"
)

// Parameter sweeps: §III-C's robustness claim ("From varying these
// parameters, we found the results followed the same general trends"), the
// target-utilization sensitivity of the algorithms, and heterogeneous
// clusters (§I notes most clouds are heterogeneous).

// Fig3SweepResult verifies the Fig. 3 trend across total-bandwidth and
// request-size settings: horizontal network scaling keeps helping, tapering
// around 8 replicas, in every configuration.
type Fig3SweepResult struct {
	// Configs labels each sweep point ("100Mbps/10Mb" etc.).
	Configs []string
	// GainAt8 is the 1→8 replica speedup per config.
	GainAt8 []float64
	// TaperRatio is the 8→16 replica speedup per config (≈1 means taper).
	TaperRatio []float64
}

// Table renders the sweep.
func (r *Fig3SweepResult) Table() *Table {
	t := &Table{
		Title:   "§III-C sweep: network scaling trend across bandwidth and request size",
		Columns: []string{"config", "gain 1->8 replicas", "ratio 8->16 (taper)"},
	}
	for i, c := range r.Configs {
		t.AddRow(c, fmt.Sprintf("%.2fx", r.GainAt8[i]), fmt.Sprintf("%.2fx", r.TaperRatio[i]))
	}
	return t
}

// RunFig3Sweep runs the Fig. 3 scenario grid over {50,100,200} Mbps total
// bandwidth and {5,10,20} Mb payloads — 27 independent runs compiled up
// front and fanned through the executor.
func RunFig3Sweep(opts Options) (*Fig3SweepResult, error) {
	opts = opts.scaled()
	res := &Fig3SweepResult{}
	bandwidths := []float64{50, 100, 200}
	payloads := []float64{5, 10, 20}
	replicaGrid := []int{1, 8, 16}

	var specs []runner.RunSpec
	for _, totalMbps := range bandwidths {
		for _, payloadMb := range payloads {
			for _, replicas := range replicaGrid {
				specs = append(specs, netSweepRunSpec(opts, replicas, totalMbps/float64(replicas), payloadMb, totalMbps))
			}
		}
	}
	results, err := execute(specs, opts)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, totalMbps := range bandwidths {
		for _, payloadMb := range payloads {
			means := make(map[int]time.Duration)
			for _, replicas := range replicaGrid {
				sum := results[i].Summary
				if sum.Completed == 0 {
					return nil, fmt.Errorf("fig3 sweep %v/%v x%d: no requests completed", totalMbps, payloadMb, replicas)
				}
				means[replicas] = sum.MeanLatency
				i++
			}
			res.Configs = append(res.Configs, fmt.Sprintf("%.0fMbps/%.0fMb", totalMbps, payloadMb))
			res.GainAt8 = append(res.GainAt8, float64(means[1])/float64(means[8]))
			res.TaperRatio = append(res.TaperRatio, float64(means[8])/float64(means[16]))
		}
	}
	return res, nil
}

// netSweepRunSpec compiles the §III-C scenario with configurable payload and
// bandwidth; the injection window keeps offered load at ~80 % of the total
// bandwidth like the base experiment.
func netSweepRunSpec(opts Options, replicas int, capEach, payloadMb, totalMbps float64) runner.RunSpec {
	cfg := platform.DefaultConfig(opts.Seed)
	cfg.Nodes = replicas
	cfg.MonitorPeriod = 0
	cfg.BaseLatency = 0
	cfg.DistributionOverhead = 0
	svc := workload.ServiceSpec{
		Name: "net-sweep", Kind: workload.KindNetworkBound,
		CPUPerRequest: 0.005, CPUOverheadPerRequest: 0.005,
		MemPerRequest: 1, NetPerRequest: payloadMb, BaselineMemMB: 80,
		InitialReplicaCPU: 0.5, InitialReplicaMemMB: 256, InitialReplicaNetMbps: capEach,
		MinReplicas: 1, MaxReplicas: 16, Timeout: 10 * time.Minute,
	}
	// Offered load ≈ 40 % of the total cap, matching the base Fig. 3 run.
	window := time.Duration(float64(microRequests) * payloadMb / (totalMbps * 0.4) * float64(time.Second))
	spec := runner.RunSpec{
		Name:       fmt.Sprintf("fig3sweep/%.0fMbps-%.0fMb-x%d", totalMbps, payloadMb, replicas),
		Seed:       opts.Seed,
		Platform:   cfg,
		Duration:   window + 2*time.Second,
		DrainExtra: 30 * time.Minute,
		Services:   []runner.ServiceRun{{Spec: svc}},
		Inject:     []runner.InjectSpec{{At: 2 * time.Second, Window: window, Service: svc.Name, Count: microRequests}},
	}
	for i := 1; i < replicas; i++ {
		spec.Pinned = append(spec.Pinned, runner.PinnedReplica{
			Service: svc.Name, Node: fmt.Sprintf("node-%d", i),
			Alloc: resources.Vector{CPU: 0.5, MemMB: 256, NetMbps: capEach},
		})
	}
	for i := 0; i < replicas; i++ {
		spec.Stress = append(spec.Stress, runner.StressSpec{
			Node: fmt.Sprintf("node-%d", i), Alloc: resources.Vector{CPU: 2, MemMB: 64},
			CPUDemand: 2, NetFlows: 32,
		})
	}
	return spec
}

// RunTargetUtilSweep sweeps the utilization target — the one knob every
// algorithm shares — showing the latency/efficiency trade-off: kubernetes
// and hybridmem at 30/50/70 % targets, six independent runs compiled up
// front and fanned through the executor.
func RunTargetUtilSweep(opts Options) (*Grid, error) {
	opts = opts.scaled()
	targets := map[string]float64{"30%": 0.3, "50%": 0.5, "70%": 0.7}
	g := &Grid{
		Title:   "Sensitivity: utilization target sweep (CPU-bound, low-burst)",
		Axes:    []string{"algorithm", "target"},
		columns: []column{meanColumn, failedColumn, machineHoursColumn},
	}
	cells := product([]string{"kubernetes", "hybridmem"}, []string{"30%", "50%", "70%"})
	return g.run(cells, func(l []string) runner.RunSpec {
		services := makeServices(workload.KindCPUBound, 15, LowBurst, opts.Seed)
		for i := range services {
			services[i].target = targets[l[1]]
		}
		row := macroRow{algorithm: l[0], label: l[0] + "@" + l[1]}
		return row.compile("targetutil", services, opts)
	}, opts)
}

// HookHeteroBigNodes is the registered runner hook that converts a freshly
// built world into the heterogeneous cluster of RunHeterogeneous.
const HookHeteroBigNodes = "hetero-big-nodes"

func init() {
	runner.RegisterHook(HookHeteroBigNodes, func(w *platform.World, _ runner.RunSpec) (runner.Finalizer, error) {
		// Replace the last 9 uniform nodes with big 8-core/16GiB machines.
		for i := 10; i < 19; i++ {
			id := fmt.Sprintf("node-%d", i)
			if _, err := w.Cluster().RemoveNode(id); err != nil {
				return nil, err
			}
			w.Control().DetachNode(id)
			big := cluster.DefaultNodeConfig(fmt.Sprintf("big-%d", i))
			big.Capacity = resources.Vector{CPU: 8, MemMB: 16384, NetMbps: 2000}
			big.Net.CapacityMbps = 2000
			if err := w.Cluster().AddNode(big); err != nil {
				return nil, err
			}
			w.Control().AttachNode(w.Cluster().Node(big.ID))
		}
		return nil, nil
	})
}

// RunHeterogeneous exercises the algorithms on a heterogeneous cluster —
// half the machines twice as large — verifying placement respects per-node
// capacities (§I: "most cloud clusters are heterogeneous").
func RunHeterogeneous(opts Options) (*Grid, error) {
	opts = opts.scaled()
	services := makeServices(workload.KindCPUBound, 15, HighBurst, opts.Seed)
	return macroGrid(
		"Heterogeneous cluster: 10 small + 9 double-size nodes (CPU-bound, high-burst)",
		services,
		[]macroRow{
			{algorithm: "kubernetes", hooks: []string{HookHeteroBigNodes}},
			{algorithm: "hybrid", hooks: []string{HookHeteroBigNodes}},
			{algorithm: "hybridmem", hooks: []string{HookHeteroBigNodes}},
		},
		opts,
	)
}
