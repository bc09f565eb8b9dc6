package experiments

import (
	"fmt"

	"hyscale/internal/cost"
	"hyscale/internal/metrics"
	"hyscale/internal/monitor"
	"hyscale/internal/runner"
	"hyscale/internal/workload"
)

// The manager experiment prices the multi-metric scaler manager
// (internal/scalermgr) against the paper's four single-signal algorithms.
// Every algorithm replays the same macro grids (mixed and CPU-bound services
// under both load shapes), the fan-out cascade topology, and the full-rate
// chaos mix, and the table reports the two axes the manager is designed to
// trade: SLO attainment (100 − cost.Report.ViolationPercent) and dollar cost
// (machine-hours at the cost model's rate plus violation penalties). The
// claim under test: manager-cost reaches equal-or-better SLO attainment than
// every single-metric algorithm at lower total cost in at least one cell.

// ManagerOutcome is one (workload, algorithm) cell of the pricing grid.
type ManagerOutcome struct {
	Workload  string
	Algorithm string
	Summary   metrics.Summary
	Actions   monitor.ActionCounts
	Cost      cost.Report
	// SLOAttainPercent is 100 − Cost.ViolationPercent(): the share of
	// completed work that met the cost model's latency SLA.
	SLOAttainPercent float64
	// AvailabilityPercent is the health probe's share of service-seconds
	// up (see health.go) on the cascade and chaos cells; zero on the macro
	// grid, which attaches no probe.
	AvailabilityPercent float64
}

// ManagerResult is the material behind the manager pricing comparison.
type ManagerResult struct {
	Name     string
	Outcomes []ManagerOutcome
}

// Outcome returns the cell for (workload, algorithm), or nil.
func (r *ManagerResult) Outcome(workload, algorithm string) *ManagerOutcome {
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		if o.Workload == workload && o.Algorithm == algorithm {
			return o
		}
	}
	return nil
}

// Table renders the pricing grid: latency and failure stats next to SLO
// attainment, machine-hours and total dollar cost per cell.
func (r *ManagerResult) Table() *Table {
	t := &Table{
		Title: r.Name,
		Columns: []string{"workload", "algorithm", "mean response", "p95", "failed %",
			"SLO attain %", "machine-hours", "cost $", "scale-outs", "scale-ins"},
	}
	for _, o := range r.Outcomes {
		t.AddRow(
			o.Workload,
			o.Algorithm,
			fmtDur(o.Summary.MeanLatency),
			fmtDur(o.Summary.P95Latency),
			fmt.Sprintf("%.2f", o.Summary.FailedPercent()),
			fmt.Sprintf("%.2f", o.SLOAttainPercent),
			fmt.Sprintf("%.1f", o.Cost.MachineHours),
			fmt.Sprintf("%.2f", o.Cost.TotalCost),
			fmt.Sprintf("%d", o.Actions.ScaleOuts),
			fmt.Sprintf("%d", o.Actions.ScaleIns),
		)
	}
	return t
}

// managerAlgorithms is the pricing line-up: the paper's four plus the two
// manager spellings.
func managerAlgorithms() []string {
	return []string{"kubernetes", "network", "hybrid", "hybridmem", "manager", "manager-cost"}
}

// RunManager prices the manager family against the paper's four algorithms
// on three macro cells, the fan-out cascade topology and the full-rate
// hardened chaos mix (hyscale-bench -exp manager). All rows of a cell pin
// the same seed so every algorithm faces an identical arrival sequence.
func RunManager(opts Options) (*ManagerResult, error) {
	opts = opts.scaled()
	type cell struct {
		workload string
		spec     runner.RunSpec
	}
	var cells []cell

	// Macro grid: the Fig. 6/7 service mixes under both load shapes.
	macro := []struct {
		name  string
		kind  workload.Kind
		shape LoadShape
	}{
		{"mixed-high-burst", workload.KindMixed, HighBurst},
		{"mixed-low-burst", workload.KindMixed, LowBurst},
		{"cpu-high-burst", workload.KindCPUBound, HighBurst},
	}
	for _, m := range macro {
		services := makeServices(m.kind, 15, m.shape, opts.Seed)
		for _, algo := range managerAlgorithms() {
			row := macroRow{algorithm: algo}
			spec := row.compile("manager/"+m.name, services, opts)
			cells = append(cells, cell{workload: m.name, spec: spec})
		}
	}

	// Cascade grid: the fan-out topology at full defenses — does multi-metric
	// scaling hold up when load arrives through a call graph rather than
	// directly?
	topo := cascadeTopologies()[0]
	defs := cascadeDefenses(topo.shedThreshold)
	def := defs[len(defs)-1]
	for _, algo := range managerAlgorithms() {
		cc := cascadeCell{topology: topo, algorithm: algo, defense: def}
		spec := cc.compile(opts)
		spec.Name = "manager/" + spec.Name
		cells = append(cells, cell{workload: "cascade-" + topo.name, spec: spec})
	}

	// Chaos grid: full fault mix with hardening on — the manager must not
	// buy its cost savings with fragility.
	chaosServices := makeServices(workload.KindCPUBound, 15, HighBurst, opts.Seed)
	base := ChaosFaults(opts.Seed + 1000)
	for _, algo := range managerAlgorithms() {
		cc := chaosCell{algorithm: algo, rate: 1.0, hardened: true}
		spec := cc.compile(chaosServices, base, opts)
		spec.Name = "manager/" + spec.Name
		cells = append(cells, cell{workload: "chaos-r1.0", spec: spec})
	}

	specs := make([]runner.RunSpec, len(cells))
	for i, c := range cells {
		specs[i] = c.spec
	}
	results, err := execute(specs, opts)
	if err != nil {
		return nil, err
	}
	res := &ManagerResult{Name: "Manager: multi-metric scaling priced against the paper's algorithms"}
	for i, c := range cells {
		r := results[i]
		res.Outcomes = append(res.Outcomes, ManagerOutcome{
			Workload:            c.workload,
			Algorithm:           c.spec.Algorithm,
			Summary:             r.Summary,
			Actions:             r.Actions,
			Cost:                r.Cost,
			SLOAttainPercent:    100 - r.Cost.ViolationPercent(),
			AvailabilityPercent: r.Extra[extraAvailability],
		})
	}
	return res, nil
}
