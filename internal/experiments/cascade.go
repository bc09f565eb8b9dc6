package experiments

import (
	"fmt"
	"time"

	"hyscale/internal/faults"
	"hyscale/internal/loadgen"
	"hyscale/internal/platform"
	"hyscale/internal/resilience"
	"hyscale/internal/runner"
	"hyscale/internal/workload"
)

// The cascade experiment measures cascading-failure behaviour on dependency-
// graph workloads. Two topologies — a three-tier synchronous chain and a
// fan-out DAG with a shared leaf — take a mid-run two-phase downstream fault
// that decays the way real incidents do: the chain's leaf slows 40x then eases
// to 15x; the DAG's shared leaf slows 24x (with a black-holed stretch inside
// the severe phase) then eases to 6x — while naive clients retry every
// failed call. Each of the paper's four algorithms runs under three defense
// levels:
//
//	off      — naive retries only: no breakers, no budget, no deadlines, no
//	           shedding. The retry-storm configuration.
//	breakers — per-edge circuit breakers added to the naive retries.
//	full     — breakers + a 10% retry budget + deadline propagation +
//	           queue-occupancy load shedding.
//
// The table reports goodput (roots completed / roots offered), tail latency,
// retry amplification (total call attempts / first attempts) and the health
// probe's goodput recovery: how long after the fault opens the per-second
// root goodput rate takes to sustainably regain 80% of its pre-fault mean.

// cascadeDuration is the per-cell horizon: 30 minutes at Scale=1.
func cascadeDuration(opts Options) time.Duration {
	return time.Duration(0.5 * float64(macroDuration(opts)))
}

// The downstream fault opens at 30% and clears at 60% of the horizon, leaving
// a 40% tail in which time-to-recovery is measurable.
const (
	cascadeFaultFrom = 0.30
	cascadeFaultTo   = 0.60
)

// cascadeTopology couples a call DAG with its service set and the fault
// schedule its deepest tier suffers.
type cascadeTopology struct {
	name  string
	graph workload.CallGraph
	// services lists every tier; only roots get external load.
	services []workload.ServiceSpec
	// windows builds the fault schedule for a run of the given horizon.
	windows func(dur time.Duration) []faults.Window
	// shedThreshold is the full-defense queue-occupancy shed threshold,
	// sized to the topology's healthy leaf concurrency the way an operator
	// sizes an admission limit: low enough to bound doomed queueing under
	// overload, high enough that healthy bursts never shed.
	shedThreshold float64
}

// cascadeService builds one tier: CPU-bound, bounded queue. Timeouts shrink
// down the stack (root tiers wait longest) — the standard RPC arrangement
// that also makes naive retry storms possible: a deep call can time out and
// be retried while its caller is still alive, after the slow tier already
// burned CPU on the doomed attempt.
func cascadeService(name string, cpuPerReq float64, maxReplicas int, timeout time.Duration) workload.ServiceSpec {
	return workload.ServiceSpec{
		Name: name, Kind: workload.KindCPUBound,
		CPUPerRequest:         cpuPerReq,
		CPUOverheadPerRequest: 0.005,
		MemPerRequest:         2,
		BaselineMemMB:         300,
		InitialReplicaCPU:     1,
		InitialReplicaMemMB:   512,
		MinReplicas:           2,
		MaxReplicas:           maxReplicas,
		Timeout:               timeout,
		QueueLimit:            96,
	}
}

// cascadeTopologies returns the two workloads under test.
func cascadeTopologies() []cascadeTopology {
	chain := cascadeTopology{
		name: "chain",
		graph: workload.CallGraph{Edges: []workload.CallEdge{
			{From: "frontend", To: "mid"},
			{From: "mid", To: "backend"},
		}},
		services: []workload.ServiceSpec{
			cascadeService("frontend", 0.02, 6, 10*time.Second),
			cascadeService("mid", 0.03, 6, 6*time.Second),
			cascadeService("backend", 0.04, 6, 3*time.Second),
		},
		// A two-phase decaying fault: a severe slowdown that eases to a
		// moderate one, the shape of a real incident. The severe phase
		// overwhelms even a scaled-out tier, so an undefended retry storm
		// piles past the deadline wall and the collapse self-sustains
		// through BOTH phases (the standing queue of retried work keeps
		// every request over deadline at factor 15 too). Defended runs
		// recover during the fault: breakers+scaling in the severe phase,
		// and even the never-scaling network HPA in the moderate phase,
		// where two bursting replicas can serve ~11.6 rps if — and only if
		// — concurrency is kept bounded.
		windows: func(dur time.Duration) []faults.Window {
			return []faults.Window{
				{
					Kind: faults.KindSlowBackend, Target: "backend",
					From:   time.Duration(cascadeFaultFrom * float64(dur)),
					To:     time.Duration(0.45 * float64(dur)),
					Factor: 40,
				},
				{
					Kind: faults.KindSlowBackend, Target: "backend",
					From:   time.Duration(0.45 * float64(dur)),
					To:     time.Duration(cascadeFaultTo * float64(dur)),
					Factor: 15,
				},
			}
		},
		shedThreshold: 0.05,
	}
	fanout := cascadeTopology{
		name: "fanout",
		graph: workload.CallGraph{Edges: []workload.CallEdge{
			{From: "gateway", To: "catalog"},
			{From: "gateway", To: "orders", Prob: 0.7},
			{From: "catalog", To: "db"},
			{From: "orders", To: "db", Calls: 2},
		}},
		services: []workload.ServiceSpec{
			cascadeService("gateway", 0.015, 6, 10*time.Second),
			cascadeService("catalog", 0.025, 6, 6*time.Second),
			cascadeService("orders", 0.025, 6, 6*time.Second),
			cascadeService("db", 0.035, 8, 3*time.Second),
		},
		// The shared leaf degrades severely (lock convoy), is fully
		// black-holed for a stretch — the blackout feeds breaker accrual —
		// then limps at a moderate factor before clearing. The fan-out
		// amplifies the storm: every root costs ~2.4 db calls, so the
		// undefended pile is deeper and stays collapsed through the
		// moderate phase, while defended runs come back as soon as the
		// blackout lifts.
		windows: func(dur time.Duration) []faults.Window {
			return []faults.Window{
				{
					Kind: faults.KindSlowBackend, Target: "db",
					From:   time.Duration(cascadeFaultFrom * float64(dur)),
					To:     time.Duration(0.45 * float64(dur)),
					Factor: 24,
				},
				{
					Kind: faults.KindBackend, Target: "db",
					From: time.Duration(0.40 * float64(dur)),
					To:   time.Duration(0.46 * float64(dur)),
				},
				// Factor 6 keeps the moderate phase inside the band where
				// the storm itself is the overload: an undefended client's
				// retried calls (~1.7x) exceed what two bursting db
				// replicas serve, while the defended call rate fits.
				{
					Kind: faults.KindSlowBackend, Target: "db",
					From:   time.Duration(0.46 * float64(dur)),
					To:     time.Duration(cascadeFaultTo * float64(dur)),
					Factor: 6,
				},
			}
		},
		shedThreshold: 0.07,
	}
	return []cascadeTopology{chain, fanout}
}

// cascadeDefense is one defense level of the comparison.
type cascadeDefense struct {
	name string
	cfg  resilience.Config
}

// cascadeDefenses returns the three levels every (topology, algorithm) pair
// runs under. All three retry with the same attempt bound so the defenses —
// not the retry count — are the only variable. shedThreshold is the
// topology-sized admission limit used by the full level.
func cascadeDefenses(shedThreshold float64) []cascadeDefense {
	retryStorm := &resilience.RetryConfig{MaxAttempts: 4, Backoff: 150 * time.Millisecond}
	budgeted := &resilience.RetryConfig{MaxAttempts: 4, Backoff: 150 * time.Millisecond, Budget: 0.1}
	breakers := &resilience.BreakerConfig{FailuresToOpen: 5, OpenFor: 2 * time.Second, HalfOpenProbes: 1}
	return []cascadeDefense{
		{name: "off", cfg: resilience.Config{Retry: retryStorm}},
		{name: "breakers", cfg: resilience.Config{Retry: retryStorm, Breakers: breakers}},
		// The shed threshold is deliberately low: with a 96-deep queue and
		// 3s leaf deadlines, anything past a few in-flight slow requests is
		// already doomed work, and shedding early is what keeps an
		// under-provisioned tier completing at its capacity instead of
		// missing every deadline at once under processor sharing.
		{name: "full", cfg: resilience.Config{
			Retry:     budgeted,
			Breakers:  breakers,
			Deadlines: &resilience.DeadlineConfig{Margin: 50 * time.Millisecond},
			Shedding:  &resilience.ShedConfig{UtilThreshold: shedThreshold, MaxShed: 0.95},
		}},
	}
}

// cascadeColumns report goodput, tail latency, retry amplification (total
// call attempts / first attempts) and the health signal's goodput recovery
// from the fault onset (see goodputRecovery in platform/health.go): defended
// configurations recover while the fault is still active, an undefended
// collapse only after it clears. "degraded" counts the seconds the
// per-second goodput rate spent below 80% of its pre-fault mean — the total
// outage, wherever it fell.
var cascadeColumns = []column{
	{header: "goodput %", reads: []seriesKey{rootsGenerated, rootsCompleted}, render: func(r *Row) string {
		var goodput float64
		if offered := r.series(rootsGenerated.name, rootsGenerated.labels); offered > 0 {
			goodput = 100 * r.series(rootsCompleted.name, rootsCompleted.labels) / offered
		}
		return fmt.Sprintf("%.2f", goodput)
	}},
	{header: "p99", render: func(r *Row) string { return fmtDur(r.Summary.P99Latency) }},
	seriesf("amplif.", "%.2fx", "hyscale_retry_amplification_ratio", ""),
	seriesColumn("recovery", platform.SeriesGoodputRecovery, "", fmtRecovery),
	seriesf("degraded", "%.0fs", platform.SeriesDegraded, ""),
	seriesf("shed", "%.0f", "hyscale_shed_total", ""),
	seriesf("short-circuits", "%.0f", "hyscale_breaker_short_circuits_total", ""),
	seriesf("deadline-miss", "%.0f", "hyscale_deadline_exceeded_total", ""),
}

// The root-outcome series goodput divides: roots completed / roots offered.
var (
	rootsGenerated = seriesKey{"hyscale_cascade_roots_total", `outcome="generated"`}
	rootsCompleted = seriesKey{"hyscale_cascade_roots_total", `outcome="completed"`}
)

// cascadeCell parameterises one run of the comparison.
type cascadeCell struct {
	topology  cascadeTopology
	algorithm string
	defense   cascadeDefense
}

// compile turns a cell into a RunSpec: root-only external load, the topology's
// call graph, the defense level's resilience config, and the downstream fault
// window.
func (c cascadeCell) compile(opts Options) runner.RunSpec {
	dur := cascadeDuration(opts)
	cfg := platform.DefaultConfig(opts.Seed)
	cfg.Nodes = 12
	cfg.CallGraph = c.topology.graph
	cfg.Resilience = c.defense.cfg
	cfg.Faults = faults.Config{Seed: opts.Seed + 3000, Windows: c.topology.windows(dur)}

	spec := runner.RunSpec{
		Name: fmt.Sprintf("cascade/%s-%s-%s", c.topology.name, c.algorithm, c.defense.name),
		Label: fmt.Sprintf("%s %s %s",
			c.topology.name, c.algorithm, c.defense.name),
		Seed:      opts.Seed,
		Platform:  cfg,
		Algorithm: c.algorithm,
		Duration:  dur,
	}
	roots := make(map[string]bool)
	for _, r := range c.topology.graph.Roots() {
		roots[r] = true
	}
	for _, s := range c.topology.services {
		sr := runner.ServiceRun{Spec: s, Target: 0.5}
		if roots[s.Name] {
			sr.Load = runner.FromPattern(loadgen.Constant{RPS: 12})
		}
		spec.Services = append(spec.Services, sr)
	}
	return spec
}

// cascadeAlgorithms are the paper's four autoscalers.
func cascadeAlgorithms() []string {
	return []string{"kubernetes", "network", "hybrid", "hybridmem"}
}

// RunCascade drives the two dependency-graph topologies through a mid-run
// downstream fault under every (algorithm, defense level) pair and tabulates
// goodput, tail latency, retry amplification and time-to-recovery
// (hyscale-bench -exp cascade).
func RunCascade(opts Options) (*Grid, error) {
	opts = opts.scaled()
	defenseName := func(d cascadeDefense) string { return d.name }
	topologies, topologyOf := axisOf(cascadeTopologies(), func(t cascadeTopology) string { return t.name })
	// Defense names do not depend on the topology's shed threshold.
	defenses, _ := axisOf(cascadeDefenses(0), defenseName)
	g := &Grid{
		Title:   "Cascade: dependency-graph workloads under a downstream fault",
		Axes:    []string{"topology", "algorithm", "defense"},
		columns: cascadeColumns,
	}
	return g.run(product(topologies, cascadeAlgorithms(), defenses), func(l []string) runner.RunSpec {
		topo := topologyOf[l[0]]
		_, defenseOf := axisOf(cascadeDefenses(topo.shedThreshold), defenseName)
		return cascadeCell{topology: topo, algorithm: l[1], defense: defenseOf[l[2]]}.compile(opts)
	}, opts)
}
