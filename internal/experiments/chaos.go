package experiments

import (
	"fmt"
	"time"

	"hyscale/internal/faults"
	"hyscale/internal/metrics"
	"hyscale/internal/monitor"
	"hyscale/internal/platform"
	"hyscale/internal/runner"
	"hyscale/internal/workload"
)

// The chaos experiment replays Fig. 6b's mixed-burst workload (15 CPU-bound
// services under high-burst load) while the control plane degrades:
// `docker update`s fail, replica starts fail or stall, stats queries drop
// and backends black-hole connections. It sweeps the fault rate and, at the
// highest rate, re-runs with the hardening (retry/backoff, stale-snapshot
// degradation, LB health checks) switched off — so the table directly
// prices what the resilience machinery buys per algorithm.

// ChaosFaults is the base fault mix the chaos experiment scales; rate 1.0
// applies it as-is. Exported so tests and the facade can reuse it.
func ChaosFaults(seed int64) faults.Config {
	return faults.Config{
		Seed:             seed,
		VerticalFailProb: 0.25,
		StartFailProb:    0.20,
		StartSlowProb:    0.25,
		StartSlowBy:      8 * time.Second,
		StatsDropProb:    0.25,
		BackendDownProb:  0.15,
		BackendDownFor:   10 * time.Second,
		BackendDownEvery: time.Minute,
	}
}

// ChaosOutcome is one (fault rate, algorithm, hardening) cell.
type ChaosOutcome struct {
	Algorithm string
	FaultRate float64
	Hardened  bool
	Summary   metrics.Summary
	Actions   monitor.ActionCounts
	ConnFail  platform.ConnFailureBreakdown
	// AvailabilityPercent is the §VI uptime metric under chaos: the share
	// of service-seconds the health probe saw up (see health.go).
	AvailabilityPercent float64
}

// ChaosResult is the material behind the resilience comparison.
type ChaosResult struct {
	Name     string
	Outcomes []ChaosOutcome
}

// Outcome returns the cell for (algorithm, rate, hardened), or nil.
func (r *ChaosResult) Outcome(algorithm string, rate float64, hardened bool) *ChaosOutcome {
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		if o.Algorithm == algorithm && o.FaultRate == rate && o.Hardened == hardened {
			return o
		}
	}
	return nil
}

// Table renders the per-algorithm resilience comparison.
func (r *ChaosResult) Table() *Table {
	t := &Table{
		Title: r.Name,
		Columns: []string{"fault rate", "algorithm", "hardened", "failed %", "uptime %",
			"mean response", "retries", "abandoned", "stale snaps"},
	}
	for _, o := range r.Outcomes {
		hardened := "yes"
		if !o.Hardened {
			hardened = "no"
		}
		t.AddRow(
			fmt.Sprintf("%.1f", o.FaultRate),
			o.Algorithm,
			hardened,
			fmt.Sprintf("%.2f", o.Summary.FailedPercent()),
			fmt.Sprintf("%.2f", o.AvailabilityPercent),
			fmtDur(o.Summary.MeanLatency),
			fmt.Sprintf("%d", o.Actions.Retries),
			fmt.Sprintf("%d", o.Actions.AbandonedActions),
			fmt.Sprintf("%d", o.Actions.StaleSnapshots),
		)
	}
	return t
}

// chaosCell parameterises one chaos run.
type chaosCell struct {
	algorithm string
	rate      float64
	hardened  bool
}

// compile turns a cell into a RunSpec: the Fig. 6b workload plus a scaled
// fault mix, optional hardening kill-switch, and the health probe hook.
func (c chaosCell) compile(services []serviceLoad, base faults.Config, opts Options) runner.RunSpec {
	cfg := platform.DefaultConfig(opts.Seed)
	cfg.Faults = base.Scaled(c.rate)
	cfg.HardeningOff = !c.hardened
	hardened := "hardened"
	if !c.hardened {
		hardened = "unhardened"
	}
	spec := runner.RunSpec{
		Name:      fmt.Sprintf("chaos/%s-r%.1f-%s", c.algorithm, c.rate, hardened),
		Seed:      opts.Seed,
		Platform:  cfg,
		Algorithm: c.algorithm,
		Duration:  macroDuration(opts),
		Hooks:     []string{HookHealth},
	}
	for _, s := range services {
		spec.Services = append(spec.Services, runner.ServiceRun{
			Spec: s.spec, Target: s.target, Load: runner.FromPattern(s.pattern),
		})
	}
	return spec
}

// runChaosCells compiles every cell up front, fans them through the
// executor, and collects outcomes in cell order.
func runChaosCells(name string, services []serviceLoad, cells []chaosCell, opts Options) (*ChaosResult, error) {
	res := &ChaosResult{Name: name}
	base := ChaosFaults(opts.Seed + 1000)
	specs := make([]runner.RunSpec, len(cells))
	for i, cell := range cells {
		specs[i] = cell.compile(services, base, opts)
	}
	results, err := execute(specs, opts)
	if err != nil {
		return nil, err
	}
	for i, cell := range cells {
		r := results[i]
		res.Outcomes = append(res.Outcomes, ChaosOutcome{
			Algorithm:           cell.algorithm,
			FaultRate:           cell.rate,
			Hardened:            cell.hardened,
			Summary:             r.Summary,
			Actions:             r.Actions,
			ConnFail:            r.ConnFail,
			AvailabilityPercent: r.Extra[extraAvailability],
		})
	}
	return res, nil
}

// RunChaos replays Fig. 6b's high-burst CPU-bound workload under a fault
// sweep (rates 0, 0.5, 1.0 with hardening on) plus an unhardened run at
// rate 1.0 per algorithm, tabulating failed-request %, uptime and retry
// volume.
func RunChaos(opts Options) (*ChaosResult, error) {
	opts = opts.scaled()
	services := makeServices(workload.KindCPUBound, 15, HighBurst, opts.Seed)
	algorithms := []string{"kubernetes", "hybrid", "hybridmem"}
	var cells []chaosCell
	for _, rate := range []float64{0, 0.5, 1.0} {
		for _, a := range algorithms {
			cells = append(cells, chaosCell{algorithm: a, rate: rate, hardened: true})
		}
	}
	for _, a := range algorithms {
		cells = append(cells, chaosCell{algorithm: a, rate: 1.0, hardened: false})
	}
	return runChaosCells(
		"Chaos: CPU-bound high-burst under control-plane faults",
		services, cells, opts,
	)
}
