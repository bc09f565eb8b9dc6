package experiments

import (
	"fmt"
	"strconv"
	"time"

	"hyscale/internal/faults"
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

// chaosColumns price what the resilience machinery buys per algorithm;
// uptime is the health signal's availability (see platform/health.go): 100
// at rate 0, where nothing can fail and nothing is sampled.
var chaosColumns = []column{
	failedColumn,
	availabilityColumn("uptime %"),
	meanColumn,
	seriesf("retries", "%.0f", "hyscale_control_retries_total", ""),
	seriesf("abandoned", "%.0f", "hyscale_control_abandoned_total", ""),
	seriesf("stale snaps", "%.0f", "hyscale_control_stale_snapshots_total", ""),
}

// chaosCell parameterises one chaos run.
type chaosCell struct {
	algorithm string
	rate      float64
	hardened  bool
}

// compile turns a cell into a RunSpec: the Fig. 6b workload plus a scaled
// fault mix and optional hardening kill-switch.
func (c chaosCell) compile(services []runner.ServiceRun, base faults.Config, opts Options) runner.RunSpec {
	cfg := platform.DefaultConfig(opts.Seed)
	cfg.Faults = base.Scaled(c.rate)
	cfg.HardeningOff = !c.hardened
	hardened := "hardened"
	if !c.hardened {
		hardened = "unhardened"
	}
	return runner.RunSpec{
		Name:      fmt.Sprintf("chaos/%s-r%.1f-%s", c.algorithm, c.rate, hardened),
		Seed:      opts.Seed,
		Platform:  cfg,
		Algorithm: c.algorithm,
		Duration:  macroDuration(opts),
		Services:  services,
	}
}

// chaosGrid runs the Fig. 6b service set under each (fault rate, algorithm,
// hardened) cell; rates are labelled "%.1f" and hardened "yes" or "no".
func chaosGrid(title string, services []runner.ServiceRun, cells [][]string, opts Options) (*Grid, error) {
	base := ChaosFaults(opts.Seed + 1000)
	g := &Grid{Title: title, Axes: []string{"fault rate", "algorithm", "hardened"}, columns: chaosColumns}
	return g.run(cells, func(l []string) runner.RunSpec {
		// Rate labels are literals written in "%.1f" by the callers.
		rate, _ := strconv.ParseFloat(l[0], 64)
		return chaosCell{algorithm: l[1], rate: rate, hardened: l[2] == "yes"}.compile(services, base, opts)
	}, opts)
}

// RunChaos replays Fig. 6b's high-burst CPU-bound workload under a fault
// sweep (rates 0, 0.5, 1.0 with hardening on) plus an unhardened run at
// rate 1.0 per algorithm, tabulating failed-request %, uptime and retry
// volume.
func RunChaos(opts Options) (*Grid, error) {
	opts = opts.scaled()
	services := makeServices(workload.KindCPUBound, 15, HighBurst, opts.Seed)
	algorithms := []string{"kubernetes", "hybrid", "hybridmem"}
	cells := append(product([]string{"0.0", "0.5", "1.0"}, algorithms, []string{"yes"}),
		product([]string{"1.0"}, algorithms, []string{"no"})...)
	return chaosGrid("Chaos: CPU-bound high-burst under control-plane faults", services, cells, opts)
}
