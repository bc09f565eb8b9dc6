package experiments

import (
	"fmt"
	"time"

	"hyscale/internal/loadgen"
	"hyscale/internal/trace"
	"hyscale/internal/workload"
)

// Fig9Result holds the Bitbrains Rnd trace shape (Figure 9): CPU and memory
// usage averaged over all VMs/microservices.
type Fig9Result struct {
	Mean trace.Series
}

// Table renders a down-sampled view of the averaged trace.
func (r *Fig9Result) Table() *Table {
	t := &Table{
		Title:   "Figure 9: Bitbrains Rnd trace, CPU and memory usage averaged over all series",
		Columns: []string{"time", "avg CPU %", "avg mem %"},
	}
	n := r.Mean.Len()
	step := n / 12
	if step < 1 {
		step = 1
	}
	for i := 0; i < n; i += step {
		t.AddRow(
			(time.Duration(i) * r.Mean.Interval).String(),
			fmt.Sprintf("%.1f", r.Mean.CPUPercent[i]),
			fmt.Sprintf("%.1f", r.Mean.MemPercent[i]),
		)
	}
	return t
}

// RunFig9 generates (or, via tr, replays) the Rnd trace and returns the
// across-series average — what Figure 9 plots. Pass nil to use the
// synthetic twin (see DESIGN.md substitutions).
func RunFig9(tr *trace.Trace, opts Options) (*Fig9Result, error) {
	opts = opts.scaled()
	if tr == nil {
		cfg := trace.DefaultRndConfig(opts.Seed)
		cfg.Duration = macroDuration(opts)
		tr = trace.GenerateRnd(cfg)
	}
	if len(tr.Series) == 0 {
		return nil, fmt.Errorf("fig9: trace has no series")
	}
	return &Fig9Result{Mean: tr.Mean()}, nil
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
	if tr == nil {
		cfg := trace.DefaultRndConfig(opts.Seed)
		cfg.Duration = macroDuration(opts)
		tr = trace.GenerateRnd(cfg)
	}
	const nServices = 15
	parts := tr.Partition(nServices)

	services := make([]serviceLoad, 0, nServices)
	// Reuse the mixed-service parameterisation so Fig. 10 is comparable to
	// Fig. 7, exactly as the paper observes.
	mixed := makeServices(workload.KindMixed, nServices, LowBurst, opts.Seed)
	for i, part := range parts {
		spec := mixed[i].spec
		// Demand follows the partition's combined CPU+memory usage,
		// normalised so a 100 % busy partition drives ~2x the base rate.
		s := part
		base := 14.0
		pattern := loadgen.Func(func(at time.Duration) float64 {
			cpu, mem := s.At(at)
			return base * (0.6*cpu + 0.4*mem) / 40.0
		})
		services = append(services, serviceLoad{spec: spec, target: 0.5, pattern: pattern})
	}
	return macroGrid(
		"Figure 10: Bitbrains Rnd replay (mixed services)",
		services,
		algorithmRows("kubernetes", "hybrid", "hybridmem"),
		opts,
	)
}
