package experiments

import (
	"fmt"
	"time"

	"hyscale/internal/faults"
	"hyscale/internal/loadgen"
	"hyscale/internal/monitor"
	"hyscale/internal/platform"
	"hyscale/internal/runner"
	"hyscale/internal/workload"
)

// The disaster-recovery experiment measures the zoned control plane's zone
// fault domains end to end, at the datacenter scale the sharding was built
// for (1,000 nodes / 500 services / 8 zones). Three failure scenarios:
//
//	outage    — one zone's arbiter loses stats AND actions to every node
//	            for a bounded window (the classic zone outage); heals.
//	partition — the same zone loses only the stats direction (a gray
//	            failure: the arbiter rules its nodes dead but control
//	            actions still land); heals.
//	rolling   — two zones die back to back and stay dead; the second
//	            victim hosts a service too large for any single surviving
//	            zone's remaining capacity.
//
// crossed with three recovery variants:
//
//	no-evac — self-healing on, zone evacuation off: a dead zone's services
//	          stay down until the zone heals.
//	evac    — zone evacuation on, no spillover: each evacuated service
//	          must land whole in one surviving zone.
//	spill   — evacuation plus spillover across up to 3 zones.
//
// and three algorithms. The table reports availability and
// time-to-reconverge as the health signal defines them (platform/health.go),
// cross-zone replica displacement, and the cost delta against the matching
// no-evac cell.

// drNodes/drZones/drFillers size the cluster so the rolling scenario's
// acceptance criterion is structural: each zone offers 500 CPU (125
// four-core nodes); fillers hold 4 one-core replicas each (~63 per
// untouched zone → ~248 CPU free), and a mammoth holds 230. The first dead
// zone's mammoth fits a surviving zone whole (230 ≤ 248), but evacuation
// concentrates it there: after wave one no survivor retains more than
// ~200 CPU free (the mammoth's landing zone drops to ~20, and the
// displaced fillers level the rest downward), so the second mammoth can
// only come back split across zones — spillover or bust.
const (
	drNodes           = 1000
	drZones           = 8
	drFillers         = 498
	drMammoths        = 2
	drMammothReplicas = 230
)

// drServices builds the filler fleet and, for the rolling scenario, the
// mammoths. Mammoths are registered first: the plane's fewest-services
// assignment then homes them in zones 0 and 1 — exactly the zones the
// rolling outage kills.
func drServices(fillers, mammoths, mammothReplicas int) []runner.ServiceRun {
	out := make([]runner.ServiceRun, 0, fillers+mammoths)
	for i := 0; i < mammoths; i++ {
		spec := workload.ServiceSpec{
			Name: fmt.Sprintf("mammoth-%d", i), Kind: workload.KindCPUBound,
			CPUPerRequest:         0.45,
			CPUOverheadPerRequest: 0.05,
			MemPerRequest:         2,
			BaselineMemMB:         300,
			InitialReplicaCPU:     1,
			InitialReplicaMemMB:   512,
			MinReplicas:           mammothReplicas,
			MaxReplicas:           mammothReplicas,
			Timeout:               30 * time.Second,
		}
		// N rps × 0.5 CPU/req = N/2 CPU demand: N one-core replicas run at
		// the 0.5 utilization target. The replica count is pinned
		// (min == max) so losing a zone's worth of mammoth can only be
		// repaired by re-placing the replicas somewhere — not by the
		// surviving home growing or vertically squeezing its way back — which
		// is exactly the placement problem spillover exists to solve.
		out = append(out, runner.ServiceRun{Spec: spec, Target: 0.5, Load: runner.FromPattern(loadgen.Constant{RPS: float64(mammothReplicas)})})
	}
	for i := 0; i < fillers; i++ {
		spec := workload.ServiceSpec{
			Name: fmt.Sprintf("svc-%03d", i), Kind: workload.KindCPUBound,
			CPUPerRequest:         0.45,
			CPUOverheadPerRequest: 0.05,
			MemPerRequest:         2,
			BaselineMemMB:         300,
			InitialReplicaCPU:     1,
			InitialReplicaMemMB:   512,
			MinReplicas:           2,
			MaxReplicas:           8,
			Timeout:               30 * time.Second,
		}
		// 3.5 rps × 0.5 CPU/req = 1.75 CPU demand → a stable 4 replicas
		// (mid-interval, same reasoning as the mammoths).
		out = append(out, runner.ServiceRun{Spec: spec, Target: 0.5, Load: runner.FromPattern(loadgen.Constant{RPS: 3.5})})
	}
	return out
}

// drScenario is one zone failure schedule.
type drScenario struct {
	name     string
	mammoths int
	windows  func(d time.Duration) []faults.Window
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// drScenarios returns the three failure schedules for a horizon d. The
// single-zone scenarios open at 35% of the horizon and heal after a quarter
// of it (at least 75 s — the detector, evacuation cooldown and re-adoption
// need room at reduced -scale); the rolling outage opens earlier, kills the
// second zone one stagger later, and never heals within the horizon.
func drScenarios() []drScenario {
	single := func(kind faults.Kind, direction string) func(d time.Duration) []faults.Window {
		return func(d time.Duration) []faults.Window {
			from := time.Duration(0.35 * float64(d))
			return []faults.Window{{
				Kind: kind, Target: "0", Direction: direction,
				From: from, To: from + maxDuration(d/4, 75*time.Second),
			}}
		}
	}
	return []drScenario{
		{name: "outage", windows: single(faults.KindZoneOutage, "")},
		{name: "partition", windows: single(faults.KindZonePartition, faults.DirectionStats)},
		{name: "rolling", mammoths: drMammoths, windows: func(d time.Duration) []faults.Window {
			first := d / 4
			second := first + maxDuration(d/5, 36*time.Second)
			return []faults.Window{
				{Kind: faults.KindZoneOutage, Target: "0", From: first, To: 10 * d},
				{Kind: faults.KindZoneOutage, Target: "1", From: second, To: 10 * d},
			}
		}},
	}
}

// drVariant is one recovery configuration.
type drVariant struct {
	name      string
	evacuate  bool
	spillover int
}

func drVariants() []drVariant {
	return []drVariant{
		{name: "no-evac"},
		{name: "evac", evacuate: true, spillover: 1},
		{name: "spill", evacuate: true, spillover: 3},
	}
}

// drCell parameterises one DR run.
type drCell struct {
	scenario  drScenario
	variant   drVariant
	algorithm string
}

func (c drCell) compile(nodes, zones, fillers, mammothReplicas int, opts Options) runner.RunSpec {
	d := macroDuration(opts)
	cfg := platform.DefaultConfig(opts.Seed)
	cfg.Nodes = nodes
	cfg.Zones = zones
	cfg.SelfHealing = monitor.DefaultSelfHealing()
	cfg.Evacuate = c.variant.evacuate
	cfg.SpilloverZones = c.variant.spillover
	cfg.Faults = faults.Config{
		Seed:    opts.Seed + 3000,
		Windows: c.scenario.windows(d),
	}
	return runner.RunSpec{
		Name:      fmt.Sprintf("dr/%s-%s-%s", c.scenario.name, c.variant.name, c.algorithm),
		Label:     fmt.Sprintf("%s %s %s", c.scenario.name, c.variant.name, c.algorithm),
		Seed:      opts.Seed,
		Platform:  cfg,
		Algorithm: c.algorithm,
		Duration:  d,
		Services:  drServices(fillers, c.scenario.mammoths, mammothReplicas),
	}
}

// runDRSized executes the DR grid on a cluster of the given size — the full
// grid for RunDR, a reduced one for the smoke tests.
func runDRSized(opts Options, nodes, zones, fillers, mammothReplicas int, algorithms []string) (*Grid, error) {
	opts = opts.scaled()
	scenarios, scenarioOf := axisOf(drScenarios(), func(s drScenario) string { return s.name })
	variants, variantOf := axisOf(drVariants(), func(v drVariant) string { return v.name })
	g := &Grid{
		Title: "Disaster recovery: zone outage, evacuation and spillover",
		Axes:  []string{"scenario", "variant", "algorithm"},
	}
	// Reconvergence is timed from the first zone failure ("-": the cell did
	// not survive). Displaced counts replicas evacuation carried across a
	// zone boundary, spillover the subset placed beyond the primary target
	// zone. The cost delta is this cell's total cost minus the matching
	// no-evac cell's — what the recovery paid for in machine-hours and
	// penalties.
	g.columns = []column{
		reconvergeColumn,
		availabilityColumn("avail %"),
		failedColumn,
		seriesf("displaced", "%.0f", "hyscale_zone_evac_replicas_displaced_total", ""),
		seriesf("spillover", "%.0f", "hyscale_zone_evac_spillover_placements_total", ""),
		cellf("cost Δ", "%+.2f", func(r *Row) float64 {
			base := g.Row(r.Labels[0], "no-evac", r.Labels[2])
			if base == nil {
				return 0
			}
			return r.Cost.TotalCost - base.Cost.TotalCost
		}),
	}
	return g.run(product(scenarios, variants, algorithms), func(l []string) runner.RunSpec {
		c := drCell{scenario: scenarioOf[l[0]], variant: variantOf[l[1]], algorithm: l[2]}
		return c.compile(nodes, zones, fillers, mammothReplicas, opts)
	}, opts)
}

// RunDR runs the zone disaster-recovery grid at datacenter scale —
// 1,000 nodes, ~500 services, 8 zones — under {outage, partition, rolling}
// × {no-evac, evac, spill} × 3 algorithms (hyscale-bench -exp dr).
func RunDR(opts Options) (*Grid, error) {
	return runDRSized(opts, drNodes, drZones, drFillers, drMammothReplicas,
		[]string{"kubernetes", "hybrid", "hybridmem"})
}
