package hyscale

// One benchmark per table/figure of the paper's evaluation. Each benchmark
// runs the corresponding experiment harness at reduced scale (macro runs are
// 12 simulated minutes instead of the paper's hour; `cmd/hyscale-bench
// -all -scale 1` runs them paper-sized) and reports the figure's headline
// quantity as a custom metric, so `go test -bench=. -benchmem` regenerates
// the whole evaluation:
//
//	BenchmarkFig2HorizontalCPU    — §III-A  (Fig. 2)
//	BenchmarkMemScaling           — §III-B  (text result)
//	BenchmarkFig3HorizontalNet    — §III-C  (Fig. 3)
//	BenchmarkFig6CPUBound*        — §VI     (Fig. 6a/6b)
//	BenchmarkFig7Mixed*           — §VI     (Fig. 7a/7b)
//	BenchmarkFig8NetworkBound*    — §VI     (Fig. 8a/8b)
//	BenchmarkFig9TraceShape       — §VI-B   (Fig. 9)
//	BenchmarkFig10Bitbrains       — §VI-B   (Fig. 10)

import (
	"testing"
	"time"

	"hyscale/internal/experiments"
	"hyscale/internal/trace"
)

func benchOpts() experiments.Options { return experiments.Options{Seed: 1, Scale: 0.2} }

func BenchmarkFig2HorizontalCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		horizontal := func(replicas string) float64 {
			return float64(r.Row("horizontal + stress", replicas).Summary.MeanLatency)
		}
		b.ReportMetric(experiments.ContentionOverheadPercent(r), "contention-%")
		b.ReportMetric(horizontal("16")/horizontal("1"), "slowdown-16x")
	}
}

func BenchmarkMemScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunMemScaling(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup("4x128MB", "1x512MB"), "swap-cliff-x")
	}
}

func BenchmarkFig3HorizontalNet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		horizontal := func(replicas string) float64 {
			return float64(r.Row("horizontal + stress", replicas).Summary.MeanLatency)
		}
		b.ReportMetric(horizontal("1")/horizontal("8"), "gain-at-8x")
	}
}

func benchMacro(b *testing.B, run func(experiments.LoadShape, experiments.Options) (*experiments.Grid, error),
	shape experiments.LoadShape, baseline, challenger string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := run(shape, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup(baseline, challenger), "speedup-x")
		b.ReportMetric(r.Row(baseline).Summary.FailedPercent(), baseline+"-failed-%")
		b.ReportMetric(r.Row(challenger).Summary.FailedPercent(), challenger+"-failed-%")
	}
}

func BenchmarkFig6CPUBoundLowBurst(b *testing.B) {
	benchMacro(b, experiments.RunFig6, experiments.LowBurst, "kubernetes", "hybridmem")
}

func BenchmarkFig6CPUBoundHighBurst(b *testing.B) {
	benchMacro(b, experiments.RunFig6, experiments.HighBurst, "kubernetes", "hybridmem")
}

func BenchmarkFig7MixedLowBurst(b *testing.B) {
	benchMacro(b, experiments.RunFig7, experiments.LowBurst, "kubernetes", "hybridmem")
}

func BenchmarkFig7MixedHighBurst(b *testing.B) {
	benchMacro(b, experiments.RunFig7, experiments.HighBurst, "kubernetes", "hybridmem")
}

func BenchmarkFig8NetworkBoundLowBurst(b *testing.B) {
	benchMacro(b, experiments.RunFig8, experiments.LowBurst, "kubernetes", "network")
}

func BenchmarkFig8NetworkBoundHighBurst(b *testing.B) {
	benchMacro(b, experiments.RunFig8, experiments.HighBurst, "kubernetes", "network")
}

func BenchmarkFig9TraceShape(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		// RunFig9's synthetic twin: the Rnd trace over the macro horizon
		// (an hour × Scale). The metrics read its full averaged series.
		cfg := trace.DefaultRndConfig(opts.Seed)
		cfg.Duration = time.Duration(float64(time.Hour) * opts.Scale)
		tr := trace.GenerateRnd(cfg)
		if _, err := experiments.RunFig9(tr, opts); err != nil {
			b.Fatal(err)
		}
		mean := tr.Mean()
		b.ReportMetric(mean.CPUPercent[0], "cpu-%-t0")
		b.ReportMetric(mean.MaxCPU(), "cpu-%-peak")
	}
}

func BenchmarkFig10Bitbrains(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig10(nil, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup("kubernetes", "hybridmem"), "speedup-x")
		b.ReportMetric(r.Speedup("hybrid", "kubernetes"), "k8s-over-hybrid-x")
	}
}

// --- Extension benches (ablations and cost analyses; DESIGN.md §7) --------

func BenchmarkAblationHyScaleMechanisms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAblation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup("hybridmem-noreclaim", "hybridmem"), "reclaim-gain-x")
		b.ReportMetric(r.Speedup("hybridmem-vertical-only", "hybridmem"), "horizontal-gain-x")
	}
}

func BenchmarkMonitorPeriodSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunMonitorPeriodSensitivity(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup("hybridmem@30s", "hybridmem@5s"), "5s-over-30s-x")
		b.ReportMetric(r.Speedup("kubernetes@5s", "hybridmem@5s"), "fair-speedup-x")
	}
}

func BenchmarkPlacementSpreadVsBinpack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunPlacement(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		spread := r.Row("hybridmem/spread")
		pack := r.Row("hybridmem/binpack")
		b.ReportMetric(spread.Cost.MachineHours-pack.Cost.MachineHours, "machine-hours-saved")
		b.ReportMetric(r.Speedup("hybridmem/binpack", "hybridmem/spread"), "spread-speedup-x")
	}
}

func BenchmarkNodeChurnAvailability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunNodeChurn(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Row("kubernetes").Summary.FailedPercent(), "k8s-failed-%")
		b.ReportMetric(r.Row("hybridmem").Summary.FailedPercent(), "hybridmem-failed-%")
	}
}
