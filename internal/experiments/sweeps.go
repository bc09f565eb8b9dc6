package experiments

import (
	"fmt"
	"strconv"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/resources"
	"hyscale/internal/runner"
	"hyscale/internal/workload"
)

// Parameter sweeps: §III-C's robustness claim ("From varying these
// parameters, we found the results followed the same general trends"), the
// target-utilization sensitivity of the algorithms, and heterogeneous
// clusters (§I notes most clouds are heterogeneous).

// RunFig3Sweep verifies the Fig. 3 trend across total-bandwidth and
// request-size settings: horizontal network scaling keeps helping, tapering
// around 8 replicas, in every configuration. It runs the Fig. 3 scenario
// over {50,100,200} Mbps total bandwidth and {5,10,20} Mb payloads at 1, 8
// and 16 replicas — 27 independent runs — and reports one row per
// configuration.
func RunFig3Sweep(opts Options) (*Grid, error) {
	opts = opts.scaled()
	g := &Grid{
		Title: "§III-C sweep: network scaling trend across bandwidth and request size",
		Axes:  []string{"total Mbps", "payload Mb", "replicas"},
		table: fig3SweepTable,
	}
	cells := product([]string{"50", "100", "200"}, []string{"5", "10", "20"}, []string{"1", "8", "16"})
	return requireCompleted(g.run(cells, func(l []string) runner.RunSpec {
		totalMbps, _ := strconv.ParseFloat(l[0], 64)
		payloadMb, _ := strconv.ParseFloat(l[1], 64)
		replicas, _ := strconv.Atoi(l[2])
		// Offered load ≈ 40 % of the total cap, matching the base Fig. 3 run.
		window := time.Duration(float64(microRequests) * payloadMb / (totalMbps * 0.4) * float64(time.Second))
		name := fmt.Sprintf("fig3sweep/%.0fMbps-%.0fMb-x%d", totalMbps, payloadMb, replicas)
		svc := netMicroSpec("net-sweep", payloadMb, totalMbps/float64(replicas))
		spec := microRunSpec(opts, name, svc, replicas, window, 30*time.Minute, netStress())
		spec.Platform.DistributionOverhead = 0
		return spec
	}, opts))
}

// fig3SweepRatios returns one sweep configuration's 1→8 replica speedup and
// its 8→16 replica speedup (≈1 means the gain tapers).
func fig3SweepRatios(g *Grid, totalMbps, payloadMb string) (gainAt8, taper float64) {
	mean := func(replicas string) float64 {
		return float64(g.Row(totalMbps, payloadMb, replicas).Summary.MeanLatency)
	}
	return mean("1") / mean("8"), mean("8") / mean("16")
}

// fig3SweepTable folds each configuration's three runs into its ratio row.
func fig3SweepTable(g *Grid) *Table {
	t := &Table{Title: g.Title, Columns: []string{"config", "gain 1->8 replicas", "ratio 8->16 (taper)"}}
	for _, r := range g.Rows {
		if l := r.Labels; l[2] == "1" {
			gain, taper := fig3SweepRatios(g, l[0], l[1])
			t.AddRow(l[0]+"Mbps/"+l[1]+"Mb", fmt.Sprintf("%.2fx", gain), fmt.Sprintf("%.2fx", taper))
		}
	}
	return t
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
			services[i].Target = targets[l[1]]
		}
		row := macroRow{algorithm: l[0], label: l[0] + "@" + l[1]}
		return row.compile("targetutil", services, opts)
	}, opts)
}

// RunHeterogeneous exercises the algorithms on a heterogeneous cluster —
// half the machines twice as large — verifying placement respects per-node
// capacities (§I: "most cloud clusters are heterogeneous").
func RunHeterogeneous(opts Options) (*Grid, error) {
	opts = opts.scaled()
	services := makeServices(workload.KindCPUBound, 15, HighBurst, opts.Seed)
	title := "Heterogeneous cluster: 10 small + 9 double-size nodes (CPU-bound, high-burst)"
	g := &Grid{Title: title, Axes: []string{"algorithm"}, columns: costColumns}
	return g.run(product([]string{"kubernetes", "hybrid", "hybridmem"}), func(l []string) runner.RunSpec {
		return heterogeneous(macroRow{algorithm: l[0]}.compile(title, services, opts))
	}, opts)
}

// heterogeneous declares spec's cluster as ten default machines plus nine
// 8-core/16GiB ones, big-10 .. big-18, that join at time zero: Build adds
// them before any service deploys.
func heterogeneous(spec runner.RunSpec) runner.RunSpec {
	spec.Platform.Nodes = 10
	for i := 10; i < 19; i++ {
		nc := cluster.DefaultNodeConfig(fmt.Sprintf("big-%d", i))
		nc.Capacity = resources.Vector{CPU: 8, MemMB: 16384, NetMbps: 2000}
		nc.Net.CapacityMbps = 2000
		spec.NodeRecoveries = append(spec.NodeRecoveries, runner.NodeRecovery{At: 0, Config: nc})
	}
	return spec
}
