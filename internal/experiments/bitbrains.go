package experiments

import (
	"fmt"
	"time"

	"hyscale/internal/loadgen"
	"hyscale/internal/runner"
	"hyscale/internal/trace"
	"hyscale/internal/workload"
)

// rndTrace returns tr, or for nil the synthetic twin of the Bitbrains Rnd
// trace over the macro horizon (see DESIGN.md substitutions).
func rndTrace(tr *trace.Trace, opts Options) *trace.Trace {
	if tr != nil {
		return tr
	}
	cfg := trace.DefaultRndConfig(opts.Seed)
	cfg.Duration = macroDuration(opts)
	return trace.GenerateRnd(cfg)
}

// RunFig9 generates (or, via tr, replays) the Rnd trace and renders what
// Figure 9 plots: CPU and memory usage averaged over all VMs/microservices,
// down-sampled to about a dozen points. It runs no simulation, so its grid
// has no rows. Pass nil to use the synthetic twin.
func RunFig9(tr *trace.Trace, opts Options) (*Grid, error) {
	opts = opts.scaled()
	tr = rndTrace(tr, opts)
	if len(tr.Series) == 0 {
		return nil, fmt.Errorf("fig9: trace has no series")
	}
	mean := tr.Mean()
	return &Grid{
		Title: "Figure 9: Bitbrains Rnd trace, CPU and memory usage averaged over all series",
		table: func(g *Grid) *Table {
			t := &Table{Title: g.Title, Columns: []string{"time", "avg CPU %", "avg mem %"}}
			n := mean.Len()
			step := max(n/12, 1)
			for i := 0; i < n; i += step {
				t.AddRow(
					(time.Duration(i) * mean.Interval).String(),
					fmt.Sprintf("%.1f", mean.CPUPercent[i]),
					fmt.Sprintf("%.1f", mean.MemPercent[i]),
				)
			}
			return t
		},
	}, nil
}

// RunFig10 reproduces Figure 10: the Bitbrains Rnd trace re-purposed as
// microservice demand, replayed against kubernetes vs hybrid vs hybridmem.
// The 500 VM series are partitioned into 15 groups; each group's mean CPU
// and memory usage drives one mixed microservice's arrival rate (the paper
// "re-purposed this dataset ... and scaled it to run on our cluster").
// Pass a parsed real trace to replay the genuine dataset, or nil for the
// synthetic twin.
func RunFig10(tr *trace.Trace, opts Options) (*Grid, error) {
	opts = opts.scaled()
	const nServices = 15
	// Reuse the mixed-service parameterisation so Fig. 10 is comparable to
	// Fig. 7, exactly as the paper observes.
	services := makeServices(workload.KindMixed, nServices, LowBurst, opts.Seed)
	for i, part := range rndTrace(tr, opts).Partition(nServices) {
		// Demand follows the partition's combined CPU+memory usage,
		// normalised so a 100 % busy partition drives ~2x the base rate.
		s := part
		base := 14.0
		services[i].Load = runner.FromPattern(loadgen.Func(func(at time.Duration) float64 {
			cpu, mem := s.At(at)
			return base * (0.6*cpu + 0.4*mem) / 40.0
		}))
	}
	return macroGrid(
		"Figure 10: Bitbrains Rnd replay (mixed services)",
		macroColumns,
		services,
		algorithmRows("kubernetes", "hybrid", "hybridmem"),
		opts,
	)
}
