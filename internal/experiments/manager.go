package experiments

import (
	"hyscale/internal/runner"
	"hyscale/internal/workload"
)

// The manager experiment prices the multi-metric scaler manager
// (internal/scalermgr) against the paper's four single-signal algorithms.
// Every algorithm replays the same macro grids (mixed and CPU-bound services
// under both load shapes), the chain cascade topology, and the full-rate
// chaos mix, and the table reports the two axes the manager is designed to
// trade: SLO attainment (100 − cost.Report.ViolationPercent) and dollar cost
// (machine-hours at the cost model's rate plus violation penalties). The
// claim under test: manager-cost reaches equal-or-better SLO attainment than
// every single-metric algorithm at lower total cost in at least one cell.

// sloAttainPercent is 100 − Cost.ViolationPercent(): the share of completed
// work that met the cost model's latency SLA.
func sloAttainPercent(r *Row) float64 { return 100 - r.Cost.ViolationPercent() }

// managerColumns render the pricing grid: latency and failure stats next to
// SLO attainment, machine-hours and total dollar cost per cell.
var managerColumns = []column{
	meanColumn,
	p95Column,
	failedColumn,
	cellf("SLO attain %", "%.2f", sloAttainPercent),
	cellf("machine-hours", "%.1f", func(r *Row) float64 { return r.Cost.MachineHours }),
	cellf("cost $", "%.2f", func(r *Row) float64 { return r.Cost.TotalCost }),
	scaleOutsColumn,
	scaleInsColumn,
}

// managerAlgorithms is the pricing line-up: the paper's four plus the two
// manager spellings.
func managerAlgorithms() []string {
	return []string{"kubernetes", "network", "hybrid", "hybridmem", "manager", "manager-cost"}
}

// RunManager prices the manager family against the paper's four algorithms
// on three macro cells, the chain cascade topology at full defenses and the
// full-rate hardened chaos mix (hyscale-bench -exp manager). All rows of a
// workload pin the same seed so every algorithm faces an identical arrival
// sequence.
func RunManager(opts Options) (*Grid, error) {
	opts = opts.scaled()
	// Macro workloads: the Fig. 6/7 service mixes under both load shapes.
	macro := map[string][]runner.ServiceRun{
		"mixed-high-burst": makeServices(workload.KindMixed, 15, HighBurst, opts.Seed),
		"mixed-low-burst":  makeServices(workload.KindMixed, 15, LowBurst, opts.Seed),
		"cpu-high-burst":   makeServices(workload.KindCPUBound, 15, HighBurst, opts.Seed),
	}
	// Cascade workload: full defenses — does multi-metric scaling hold up
	// when load arrives through a call graph rather than directly?
	topo := cascadeTopologies()[0]
	defs := cascadeDefenses(topo.shedThreshold)
	// Chaos workload: full fault mix with hardening on — the manager must
	// not buy its cost savings with fragility.
	chaosServices := makeServices(workload.KindCPUBound, 15, HighBurst, opts.Seed)
	base := ChaosFaults(opts.Seed + 1000)

	g := &Grid{
		Title:   "Manager: multi-metric scaling priced against the paper's algorithms",
		Axes:    []string{"workload", "algorithm"},
		columns: managerColumns,
	}
	workloads := []string{"mixed-high-burst", "mixed-low-burst", "cpu-high-burst", "cascade-" + topo.name, "chaos-r1.0"}
	return g.run(product(workloads, managerAlgorithms()), func(l []string) runner.RunSpec {
		wl, algo := l[0], l[1]
		var spec runner.RunSpec
		switch services, isMacro := macro[wl]; {
		case isMacro:
			return macroRow{algorithm: algo}.compile("manager/"+wl, services, opts)
		case wl == "chaos-r1.0":
			spec = chaosCell{algorithm: algo, rate: 1.0, hardened: true}.compile(chaosServices, base, opts)
		default:
			spec = cascadeCell{topology: topo, algorithm: algo, defense: defs[len(defs)-1]}.compile(opts)
		}
		spec.Name = "manager/" + spec.Name
		return spec
	}, opts)
}
