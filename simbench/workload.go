package main

import (
	"bytes"
	"fmt"
	"time"

	"hyscale/internal/loadgen"
	"hyscale/internal/runner"
	"hyscale/internal/scenario"
)

// workload is one benchmark input: a shipped scenario plus the edits that
// turn it into a stress case for one layer of the simulator. The edits are
// applied in code so the scenarios directory stays the single source of the
// base configurations.
type workload struct {
	name string
	// file is the shipped scenario the workload derives from, relative to
	// the repository root.
	file string
	// derive edits the parsed scenario; size is 1 for the benchmark and
	// smaller for the smoke test.
	derive func(sc *scenario.Scenario, size float64)
	// observe turns on the decision journal.
	observe bool
	// warmup is simulated before the timed window; horizon ends it.
	warmup, horizon time.Duration
	// minNamedPct is the share of profile samples the layer ledger must
	// attribute to named layers (0 disables the gate).
	minNamedPct float64
}

// workloads lists the benchmark's inputs. Why each exists:
//   - dc5k-dr: the 5,000-node wall. Data-plane physics dominates, and it is
//     the only input on the zoned plane, the sharded heap and evacuation.
//   - cascade-storm: the call-graph path (platform/cascade.go, lb,
//     resilience); routing dominates and physics is small.
//   - ctl-dense: the control plane (Poll, Apply, Snapshot, Decide) on a
//     single Monitor, and the only input writing the obs journal.
var workloads = []workload{
	{
		name: "dc5k-dr", file: "scenarios/datacenter-zones.json",
		derive: func(sc *scenario.Scenario, size float64) {
			// 1,000 nodes / 500 services / 8 zones become 5,000 / 2,000 / 16.
			sc.Nodes = scaled(5000, size)
			sc.Zones.Count = max(2, scaled(16, size))
			for i := range sc.Services {
				sc.Services[i].Count = scaled(4*sc.Services[i].Count, size)
			}
			// Zone 5 goes dark for 90 s mid-window; the DR knobs are those
			// of scenarios/zone-outage.json.
			sc.DR = &scenario.DR{Evacuate: true, SpilloverZones: 2,
				ReadoptAfter: scenario.Duration(30 * time.Second)}
			sc.Faults = &scenario.Faults{Windows: []scenario.FaultWindow{{
				Kind: "zone-outage", Target: fmt.Sprint(min(5, sc.Zones.Count-1)),
				From: scenario.Duration(60 * time.Second), To: scenario.Duration(150 * time.Second),
			}}}
		},
		warmup: 30 * time.Second, horizon: 200 * time.Second,
		minNamedPct: 80,
	},
	{
		name: "cascade-storm", file: "scenarios/cascade-retry-storm.json",
		derive: func(sc *scenario.Scenario, size float64) {
			sc.Nodes = scaled(64, size)
			for i := range sc.Services {
				s := &sc.Services[i]
				s.MaxReplicas = 40
				s.Load.Base *= 25 * size
				s.Load.Peak *= 25 * size
			}
		},
		warmup: 240 * time.Second, horizon: 1200 * time.Second,
	},
	{
		name: "ctl-dense", file: "scenarios/mixed-burst.json",
		derive: func(sc *scenario.Scenario, size float64) {
			// 19 nodes / 3 services become 400 / 800 small bursty services.
			// The flash crowd and the node failure move 6 minutes earlier so
			// a 9-minute run holds both.
			sc.Nodes = scaled(400, size)
			counts := []int{267, 267, 266}
			for i := range sc.Services {
				s := &sc.Services[i]
				s.Count = scaled(counts[i%len(counts)], size)
				s.InitialCPU = 0.5
				s.InitialMemMB = 384
				s.Load.Base *= 0.25
				s.Load.Peak *= 0.25
				if s.Load.Type == "flashcrowd" {
					s.Load.Start -= scenario.Duration(6 * time.Minute)
				}
			}
			for i := range sc.Failures {
				sc.Failures[i].At -= scenario.Duration(6 * time.Minute)
			}
			sc.SelfHealing = &scenario.SelfHealing{Enabled: true, Checkpoint: true}
		},
		observe: true,
		warmup:  60 * time.Second, horizon: 540 * time.Second,
	},
}

// drainMax bounds the post-harvest drain in simulated time; every request
// resolves well within it (the longest service timeout is 30 s).
const drainMax = 2 * time.Minute

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func scaled(n int, size float64) int { return max(1, int(float64(n)*size+0.5)) }

// compile parses the scenario bytes, applies the workload's edits and the
// seed, and lowers it to a RunSpec whose arrivals stop at the horizon, so the
// post-harvest drain can resolve every request.
func (wl *workload) compile(raw []byte, seed int64, size float64) (runner.RunSpec, error) {
	sc, err := scenario.Parse(bytes.NewReader(raw))
	if err != nil {
		return runner.RunSpec{}, err
	}
	wl.derive(sc, size)
	sc.Seed = seed
	if err := sc.Validate(); err != nil {
		return runner.RunSpec{}, err
	}
	spec, err := sc.Compile()
	if err != nil {
		return runner.RunSpec{}, err
	}
	spec.Name = wl.name
	spec.Seed = seed
	spec.Observe = wl.observe
	// The seed reaches the inputs through Poisson arrival counts.
	spec.Platform.PoissonArrivals = true
	horizon := wl.horizonFor(size)
	for i := range spec.Services {
		s := &spec.Services[i]
		p, err := s.Load.Pattern()
		if err != nil {
			return runner.RunSpec{}, err
		}
		if p != nil {
			s.Load = runner.LoadSpec{Type: "custom", Custom: cutoff{p, horizon}}
		}
	}
	return spec, nil
}

// horizonFor shortens the run for the smoke test, keeping the warm-up.
func (wl *workload) horizonFor(size float64) time.Duration {
	if size >= 1 {
		return wl.horizon
	}
	return wl.warmup + time.Duration(float64(wl.horizon-wl.warmup)*size)
}

// cutoff is a load pattern that stops at end.
type cutoff struct {
	loadgen.Pattern
	end time.Duration
}

func (c cutoff) Rate(at time.Duration) float64 {
	if at >= c.end {
		return 0
	}
	return c.Pattern.Rate(at)
}
