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
		exp        = flag.String("exp", "", "comma-separated experiment ids: fig2,mem,fig3,fig6,...,macro,scale (an unknown id lists the valid ones)")
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

	ids := experiments.AllIDs()
	if !*all {
		ids = strings.Split(*exp, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}
	// Every id is checked before anything runs: a typo must not cost a
	// paper-sized run of the experiments before it.
	runs, err := experiments.Lookup(ids)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hyscale-bench: %v\n", err)
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

	// All stdout goes through one buffered writer, and each experiment's
	// tables and timing footer are assembled into a single block before being
	// written, so nothing can interleave mid-experiment regardless of
	// -parallel.
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	var tables []*experiments.Table
	start := time.Now()
	for i, id := range ids {
		expStart := time.Now()
		ts, err := runs[i](opts)
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
