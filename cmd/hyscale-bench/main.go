// Command hyscale-bench regenerates every table and figure of the paper's
// evaluation. Run with -all to reproduce the whole evaluation and emit a
// markdown report (the source of EXPERIMENTS.md), or with -exp to run a
// single experiment:
//
//	hyscale-bench -exp fig2            # §III-A CPU scaling
//	hyscale-bench -exp fig6 -scale 0.2 # Fig. 6 at 20 % duration
//	hyscale-bench -all -md report.md   # full evaluation + markdown report
//
// -report DIR additionally journals every run's scaling decisions and
// per-service time series (see internal/obs) and writes a report directory:
// decisions/<run>.jsonl, series/<run>.csv, and report.md with sparkline
// charts and decision timelines. Artifact bytes are identical for any
// -parallel worker count.
//
// -cpuprofile/-memprofile capture pprof profiles of the run. Simulator
// performance is measured by the benchmark in simbench/ (see
// simbench/BASELINE.md).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hyscale/internal/experiments"
	"hyscale/internal/obs"
)

func main() { os.Exit(realMain()) }

// realMain carries the exit code back to main so deferred profile writers
// run on every path; a bare os.Exit would silently truncate the profiles.
func realMain() int {
	var (
		exp        = flag.String("exp", "", "experiment to run: fig2|mem|fig3|fig6|fig7|fig8|fig9|fig10|macro|... (empty with -all runs everything)")
		all        = flag.Bool("all", false, "run every experiment")
		scale      = flag.Float64("scale", 1.0, "duration scale (1.0 = paper-sized, one hour macro runs)")
		seed       = flag.Int64("seed", 1, "random seed")
		parallel   = flag.Int("parallel", 0, "max simulation runs in flight (<=0 uses GOMAXPROCS); results are identical for any value")
		md         = flag.String("md", "", "also write a markdown report to this file")
		csv        = flag.String("csv", "", "also write each table as CSV into this directory")
		report     = flag.String("report", "", "journal every run and write decision logs, time-series CSVs and a rendered report into this directory")
		timing     = flag.Bool("timing", true, "print per-run wall-clock timings after each experiment")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	if !*all && *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: hyscale-bench -all | -exp <id> [-scale S] [-seed N] [-parallel N] [-md file] [-report dir]")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hyscale-bench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "hyscale-bench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hyscale-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // snapshot live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "hyscale-bench: %v\n", err)
			}
		}()
	}

	opts := experiments.Options{Seed: *seed, Scale: *scale, Parallel: *parallel, Observe: *report != ""}
	ids := []string{
		"fig2", "mem", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10",
		"ablation", "monitorperiod", "placement", "churn", "stateful",
		"fig3sweep", "targetutil", "hetero", "predictive", "lbpolicy",
		"chaos", "recovery", "cascade", "manager", "dr",
	}
	if !*all {
		ids = strings.Split(*exp, ",")
	}

	// All stdout goes through one buffered writer, and each experiment's
	// tables and timing footer are assembled into a single block before being
	// written, so nothing can interleave mid-experiment regardless of
	// -parallel.
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	var tables []*experiments.Table
	start := time.Now()
	for _, id := range ids {
		id = strings.TrimSpace(id)
		expStart := time.Now()
		ts, err := run(id, opts)
		if err != nil {
			out.Flush()
			fmt.Fprintf(os.Stderr, "hyscale-bench: %s: %v\n", id, err)
			return 1
		}
		var block strings.Builder
		for _, t := range ts {
			block.WriteString(t.String())
			block.WriteByte('\n')
			tables = append(tables, t)
		}
		// Timing is measurement metadata, printed to stdout only: tables and
		// the -md report stay byte-identical across -parallel settings.
		runTimings := experiments.TakeTimings()
		if *timing {
			var runTotal time.Duration
			for _, rt := range runTimings {
				runTotal += rt.Elapsed
			}
			fmt.Fprintf(&block, "%s: %d runs, %v run-time in %v wall\n\n",
				id, len(runTimings), runTotal.Round(time.Millisecond),
				time.Since(expStart).Round(time.Millisecond))
		}
		out.WriteString(block.String())
		out.Flush()
	}
	fmt.Fprintf(out, "total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	out.Flush()

	if *csv != "" {
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "hyscale-bench: %v\n", err)
			return 1
		}
		for _, t := range tables {
			path := filepath.Join(*csv, t.Slug()+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "hyscale-bench: writing %s: %v\n", path, err)
				return 1
			}
		}
		fmt.Fprintf(out, "wrote %d CSV files to %s\n", len(tables), *csv)
		out.Flush()
	}

	if *md != "" {
		var b strings.Builder
		b.WriteString("# HyScale reproduction report\n\n")
		fmt.Fprintf(&b, "Generated by `hyscale-bench -all -scale %g -seed %d`.\n\n", *scale, *seed)
		for _, t := range tables {
			b.WriteString(t.Markdown())
			b.WriteString("\n")
		}
		if err := os.WriteFile(*md, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "hyscale-bench: writing %s: %v\n", *md, err)
			return 1
		}
		fmt.Fprintf(out, "wrote %s\n", *md)
		out.Flush()
	}

	if *report != "" {
		runs := experiments.TakeArtifacts()
		if err := obs.WriteReportDir(*report, reproduceCommand(*all, ids, *scale, *seed, *report), runs); err != nil {
			fmt.Fprintf(os.Stderr, "hyscale-bench: report: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "wrote report for %d runs to %s\n", len(runs), *report)
		out.Flush()
	}
	return 0
}

// reproduceCommand reconstructs the canonical command line that regenerates a
// report directory. It deliberately omits -parallel: artifacts are identical
// for any worker count, and the quoted command must be too.
func reproduceCommand(all bool, ids []string, scale float64, seed int64, dir string) string {
	sel := "-all"
	if !all {
		sel = "-exp " + strings.Join(ids, ",")
	}
	return fmt.Sprintf("hyscale-bench %s -scale %g -seed %d -report %s", sel, scale, seed, dir)
}

// run executes one experiment ID and returns its rendered tables.
func run(id string, opts experiments.Options) ([]*experiments.Table, error) {
	switch id {
	case "fig2":
		r, err := experiments.RunFig2(opts)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{r.Table()}, nil
	case "mem":
		r, err := experiments.RunMemScaling(opts)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{r.Table()}, nil
	case "fig3":
		r, err := experiments.RunFig3(opts)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{r.Table()}, nil
	case "fig6", "fig7", "fig8", "macro":
		// "macro" is the canonical four-algorithm macrobenchmark (Fig. 6 under
		// both load shapes) — the CI smoke target.
		var tables []*experiments.Table
		for _, shape := range []experiments.LoadShape{experiments.LowBurst, experiments.HighBurst} {
			var (
				r   *experiments.MacroResult
				err error
			)
			switch id {
			case "fig7":
				r, err = experiments.RunFig7(shape, opts)
			case "fig8":
				r, err = experiments.RunFig8(shape, opts)
			default:
				r, err = experiments.RunFig6(shape, opts)
			}
			if err != nil {
				return nil, err
			}
			tables = append(tables, r.Table())
		}
		return tables, nil
	case "fig9":
		r, err := experiments.RunFig9(nil, opts)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{r.Table()}, nil
	case "fig10":
		r, err := experiments.RunFig10(nil, opts)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{r.Table()}, nil
	case "chaos":
		r, err := experiments.RunChaos(opts)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{r.Table()}, nil
	case "recovery":
		r, err := experiments.RunRecovery(opts)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{r.Table()}, nil
	case "dr":
		r, err := experiments.RunDR(opts)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{r.Table()}, nil
	case "cascade":
		r, err := experiments.RunCascade(opts)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{r.Table()}, nil
	case "manager":
		r, err := experiments.RunManager(opts)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{r.Table()}, nil
	case "scale":
		r, err := experiments.RunScale(opts)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{r.Table()}, nil
	case "fig3sweep":
		r, err := experiments.RunFig3Sweep(opts)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{r.Table()}, nil
	case "targetutil":
		r, err := experiments.RunTargetUtilSweep(opts)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{r.Table()}, nil
	case "hetero":
		r, err := experiments.RunHeterogeneous(opts)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{experiments.CostTableFor(r)}, nil
	case "ablation", "monitorperiod", "placement", "churn", "stateful", "predictive", "lbpolicy":
		var (
			r   *experiments.MacroResult
			err error
		)
		switch id {
		case "ablation":
			r, err = experiments.RunAblation(opts)
		case "monitorperiod":
			r, err = experiments.RunMonitorPeriodSensitivity(opts)
		case "placement":
			r, err = experiments.RunPlacement(opts)
		case "stateful":
			r, err = experiments.RunStateful(opts)
		case "predictive":
			r, err = experiments.RunPredictive(opts)
		case "lbpolicy":
			r, err = experiments.RunLBPolicy(opts)
		default:
			r, err = experiments.RunNodeChurn(opts)
		}
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{experiments.CostTableFor(r)}, nil
	default:
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
}
