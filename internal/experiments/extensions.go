package experiments

import (
	"fmt"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/core"
	"hyscale/internal/lb"
	"hyscale/internal/runner"
	"hyscale/internal/workload"
)

// The extension experiments go beyond the paper's figures: ablations of the
// HyScale design choices, the monitor-period fairness question the paper
// raises against ElasticDocker (§II-A), the bin-packing cost trade-off
// (§I's power argument, priced by the cost package), and availability under
// node churn (the paper's dynamic-machine future work). They are indexed in
// DESIGN.md §7.

// costColumns price each row of the extension tables: machine-hours, SLA
// violations and dollars.
var costColumns = []column{
	meanColumn,
	failedColumn,
	machineHoursColumn,
	cellf("sla-violation %", "%.2f", func(r *Row) float64 { return r.Cost.ViolationPercent() }),
	cellf("total cost $", "%.4f", func(r *Row) float64 { return r.Cost.TotalCost }),
}

// RunAblation measures what each HyScale mechanism contributes: the full
// HYSCALE_CPU+Mem against variants with reclamation disabled, vertical
// scaling disabled (horizontal-only) and horizontal scaling disabled
// (vertical-only), on the mixed high-burst workload where every mechanism
// matters.
func RunAblation(opts Options) (*Grid, error) {
	opts = opts.scaled()
	services := makeServices(workload.KindMixed, 15, HighBurst, opts.Seed)
	return macroGrid(
		"Ablation: HYSCALE_CPU+Mem mechanisms (mixed, high-burst)",
		costColumns,
		services,
		algorithmRows("hybridmem", "hybridmem-noreclaim", "hybridmem-vertical-only", "hybridmem-horizontal-only"),
		opts,
	)
}

// RunMonitorPeriodSensitivity revisits the fairness critique the paper aims
// at ElasticDocker (§II-A): ElasticDocker polled every 4 s against a 30 s
// Kubernetes, an "unfair advantage to react to fluctuating workloads". Here
// HYSCALE_CPU+Mem runs at 5 s and at a handicapped 30 s against the 5 s
// Kubernetes baseline on CPU-bound high-burst load, quantifying how much of
// the hybrid advantage survives slower decisions.
func RunMonitorPeriodSensitivity(opts Options) (*Grid, error) {
	opts = opts.scaled()
	services := makeServices(workload.KindCPUBound, 15, HighBurst, opts.Seed)
	return macroGrid(
		"Sensitivity: monitor period (CPU-bound, high-burst)",
		costColumns,
		services,
		[]macroRow{
			{label: "kubernetes@5s", algorithm: "kubernetes", monitorPeriod: 5 * time.Second},
			{label: "hybridmem@5s", algorithm: "hybridmem", monitorPeriod: 5 * time.Second},
			{label: "hybridmem@15s", algorithm: "hybridmem", monitorPeriod: 15 * time.Second},
			{label: "hybridmem@30s", algorithm: "hybridmem", monitorPeriod: 30 * time.Second},
		},
		opts,
	)
}

// RunPlacement compares the spread and bin-pack placement heuristics on
// machines used versus performance — the §I trade-off between power savings
// (fewer powered machines) and co-location contention.
func RunPlacement(opts Options) (*Grid, error) {
	opts = opts.scaled()
	services := makeServices(workload.KindCPUBound, 15, LowBurst, opts.Seed)
	return macroGrid(
		"Placement: spread vs binpack (CPU-bound, low-burst)",
		costColumns,
		services,
		[]macroRow{
			{label: "kubernetes/spread", algorithm: "kubernetes", placement: core.PlacementSpread},
			{label: "kubernetes/binpack", algorithm: "kubernetes", placement: core.PlacementBinPack},
			{label: "hybridmem/spread", algorithm: "hybridmem", placement: core.PlacementSpread},
			{label: "hybridmem/binpack", algorithm: "hybridmem", placement: core.PlacementBinPack},
		},
		opts,
	)
}

// RunStateful explores the stateful-service question the paper reserves for
// future work (§VII): each fresh replica must first receive 2 GiB of state
// (~80 s of transfer) before serving, so horizontal scale-ups take effect
// late. The outcome is not a foregone conclusion — slow scale-ups penalise
// every algorithm's reactive replicas, while Kubernetes' coarse one-CPU
// replica granularity leaves it accidentally over-provisioned between
// bursts — and the harness records whichever way the trade-off falls (see
// EXPERIMENTS.md).
func RunStateful(opts Options) (*Grid, error) {
	opts = opts.scaled()
	services := makeServices(workload.KindCPUBound, 15, HighBurst, opts.Seed)
	for i := range services {
		services[i].Spec.StateSyncMB = 2048
		services[i].Spec.StateSyncMbps = 200
		// Keep the burst within one machine's vertical headroom so vertical
		// scaling is at least in the running against standing replicas.
		inner := services[i].Load
		services[i].Load = runner.LoadSpec{Type: "scaled", Factor: 0.55, Inner: &inner}
	}
	return macroGrid(
		"Stateful services: 2 GiB state sync per new replica (CPU-bound, high-burst)",
		costColumns,
		services,
		algorithmRows("kubernetes", "hybrid", "hybridmem"),
		opts,
	)
}

// RunPredictive evaluates the "machine learning aspect" of the paper's
// future work (§VII) in its simplest form: the same algorithms wrapped with
// one-period linear usage extrapolation, on CPU-bound high-burst load where
// reaction lag is what hurts.
func RunPredictive(opts Options) (*Grid, error) {
	opts = opts.scaled()
	services := makeServices(workload.KindCPUBound, 15, HighBurst, opts.Seed)
	return macroGrid(
		"Predictive scaling: one-period usage extrapolation (CPU-bound, high-burst)",
		costColumns,
		services,
		algorithmRows("kubernetes", "kubernetes-predictive", "hybridmem", "hybridmem-predictive"),
		opts,
	)
}

// RunLBPolicy compares load-balancer routing policies under HYSCALE_CPU+Mem,
// whose vertical scaling makes replica sizes heterogeneous: plain
// least-outstanding treats a 3-CPU replica and a 0.25-CPU replica as equals,
// while the weighted policy routes per unit of allocated CPU.
func RunLBPolicy(opts Options) (*Grid, error) {
	opts = opts.scaled()
	services := makeServices(workload.KindCPUBound, 15, HighBurst, opts.Seed)
	return macroGrid(
		"Load balancing: least-outstanding vs weighted (hybridmem, CPU-bound, high-burst)",
		costColumns,
		services,
		[]macroRow{
			{label: "hybridmem/least-outstanding", algorithm: "hybridmem", lbPolicy: lb.LeastOutstanding},
			{label: "hybridmem/weighted", algorithm: "hybridmem", lbPolicy: lb.WeightedLeastOutstanding},
			{label: "kubernetes/least-outstanding", algorithm: "kubernetes", lbPolicy: lb.LeastOutstanding},
			{label: "kubernetes/weighted", algorithm: "kubernetes", lbPolicy: lb.WeightedLeastOutstanding},
		},
		opts,
	)
}

// RunNodeChurn measures availability under machine failures: a quarter of
// the worker nodes fail mid-run (their containers die with them) and fresh
// machines join later. The algorithms' min-replica enforcement must
// re-replicate the lost services — the fault-tolerance property hybrid
// scaling shares with horizontal scaling (§I).
func RunNodeChurn(opts Options) (*Grid, error) {
	opts = opts.scaled()
	services := makeServices(workload.KindCPUBound, 15, LowBurst, opts.Seed)
	dur := macroDuration(opts)

	// Kill nodes 0..3 at 40% of the run, one second apart; replacement
	// machines join at 70%. Declarative RunSpec fields, so the churn schedule
	// serializes with the spec.
	var failures []runner.NodeFailure
	var recoveries []runner.NodeRecovery
	for i := 0; i < 4; i++ {
		failures = append(failures, runner.NodeFailure{
			At:   time.Duration(float64(dur)*0.4) + time.Duration(i)*time.Second,
			Node: fmt.Sprintf("node-%d", i),
		})
		recoveries = append(recoveries, runner.NodeRecovery{
			At:     time.Duration(float64(dur)*0.7) + time.Duration(i)*time.Second,
			Config: cluster.DefaultNodeConfig(fmt.Sprintf("spare-%d", i)),
		})
	}

	return macroGrid(
		"Availability: node churn, 4 of 19 workers fail (CPU-bound, low-burst)",
		costColumns,
		services,
		[]macroRow{
			{algorithm: "kubernetes", nodeFailures: failures, nodeRecoveries: recoveries},
			{algorithm: "hybrid", nodeFailures: failures, nodeRecoveries: recoveries},
			{algorithm: "hybridmem", nodeFailures: failures, nodeRecoveries: recoveries},
		},
		opts,
	)
}
