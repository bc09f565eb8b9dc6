// Command hyscale-sim runs ad-hoc autoscaling simulations and prints
// per-service and aggregate request statistics — a quick way to explore how
// the algorithms behave outside the paper's fixed experiment grid.
//
// The -algo flag accepts a comma-separated list; each algorithm compiles to
// its own RunSpec and the specs fan out across -parallel workers with
// identical results for any worker count:
//
//	hyscale-sim -algo hybridmem -kind mixed -services 10 -duration 20m
//	hyscale-sim -algo kubernetes,hybrid,hybridmem -parallel 3 -kind cpu -rps 20 -load burst
//	hyscale-sim -algo manager-cost,hybridmem -kind mixed -load burst
//
// See docs/ALGORITHMS.md for every accepted -algo spelling.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hyscale"
	"hyscale/internal/loadgen"
	"hyscale/internal/obs"
	"hyscale/internal/platform"
	"hyscale/internal/scenario"
	"hyscale/internal/workload"
)

func main() {
	var (
		algo     = flag.String("algo", "hybridmem", "autoscaler(s), comma-separated: kubernetes|network|hybrid|hybridmem|manager|manager-cost|none (see docs/ALGORITHMS.md)")
		kind     = flag.String("kind", "cpu", "service kind: cpu|mem|net|mixed")
		services = flag.Int("services", 5, "number of microservices")
		nodes    = flag.Int("nodes", 19, "worker nodes")
		rps      = flag.Float64("rps", 12, "base request rate per service")
		load     = flag.String("load", "wave", "load pattern: constant|wave|burst")
		duration = flag.Duration("duration", 15*time.Minute, "simulated duration")
		seed     = flag.Int64("seed", 1, "random seed")
		zones    = flag.Int("zones", 1, "control-plane zones: >1 shards the monitor into per-zone arbiters under a global allocator")
		parallel = flag.Int("parallel", 0, "max runs in flight when comparing algorithms (<=0 uses GOMAXPROCS)")
		config   = flag.String("config", "", "run a JSON scenario file instead of the flag-built workload (see scenarios/)")
	)
	flag.Parse()

	if *config != "" {
		runScenario(*config)
		return
	}

	names := make([]string, 0, *services)
	var runs []hyscale.ServiceRun
	for i := 0; i < *services; i++ {
		name := fmt.Sprintf("svc-%02d", i)
		var spec workload.ServiceSpec
		switch *kind {
		case "cpu":
			spec = hyscale.CPUBoundService(name, 0.12)
		case "mem":
			spec = hyscale.MemoryBoundService(name, 40)
		case "net":
			spec = hyscale.NetworkBoundService(name, 6, 60)
		case "mixed":
			spec = hyscale.MixedService(name, 0.12, 90)
		default:
			fatal(fmt.Errorf("unknown kind %q", *kind))
		}
		var pattern loadgen.Pattern
		switch *load {
		case "constant":
			pattern = hyscale.ConstantLoad(*rps)
		case "burst":
			pattern = hyscale.BurstLoad(*rps*0.5, *rps*2.75, 10*time.Minute, 2*time.Minute)
		case "wave":
			pattern = hyscale.WaveLoad(*rps, 0.3, 8*time.Minute)
		default:
			fatal(fmt.Errorf("unknown load %q", *load))
		}
		runs = append(runs, hyscale.ServiceRun{Spec: spec, Target: 0.5, Load: hyscale.LoadSpecFor(pattern)})
		names = append(names, name)
	}

	algos := strings.Split(*algo, ",")
	specs := make([]hyscale.RunSpec, 0, len(algos))
	for _, a := range algos {
		a = strings.TrimSpace(a)
		cfg := hyscale.DefaultSimConfig(*seed)
		cfg.Nodes = *nodes
		cfg.Zones = *zones
		cfg.Algorithm = hyscale.AlgorithmName(a)
		spec := hyscale.NewRunSpec("sim/"+a, cfg, *duration)
		spec.Label = a
		spec.Services = runs
		specs = append(specs, spec)
	}

	results, err := hyscale.ExecuteSpecs(*parallel, *seed, specs)
	if err != nil {
		fatal(err)
	}

	for i, res := range results {
		fmt.Printf("algorithm=%s kind=%s services=%d nodes=%d duration=%v\n\n",
			res.Spec.RowLabel(), *kind, *services, *nodes, *duration)
		for _, name := range names {
			s := res.World.Recorder().SummarizeService(name)
			fmt.Printf("%-8s %s  replicas=%d\n", name, s, res.World.Control().ReplicaCount(name))
		}
		fmt.Printf("\nTOTAL    %s\n", res.Summary)
		printMetrics(res.World)
		if res.ClampedEvents > 0 {
			fmt.Printf("warning: %d events clamped to now (stale-timestamp scheduling)\n", res.ClampedEvents)
		}
		fmt.Printf("wall time: %v\n", res.Elapsed.Round(time.Millisecond))
		if i < len(results)-1 {
			fmt.Println()
		}
	}
}

// runScenario executes a declarative JSON scenario file.
func runScenario(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	sc, err := scenario.Parse(f)
	if err != nil {
		fatal(err)
	}
	w, err := sc.Run()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("scenario %s: algorithm=%s nodes=%d duration=%v\n\n", path, sc.Algorithm, len(w.Cluster().Nodes()), time.Duration(sc.Duration))
	services := sc.ExpandedServices()
	shown := services
	if len(shown) > 20 {
		shown = shown[:10]
	}
	for _, svc := range shown {
		s := w.Recorder().SummarizeService(svc.Name)
		fmt.Printf("%-10s %s  replicas=%d\n", svc.Name, s, w.Control().ReplicaCount(svc.Name))
	}
	if len(services) > len(shown) {
		fmt.Printf("… (%d more services)\n", len(services)-len(shown))
	}
	fmt.Printf("\nTOTAL      %s\n", w.Summary())
	fmt.Printf("cost: %s\n", w.CostReport())
	printMetrics(w)
}

// printMetrics writes the run's metric list, one line per family with a
// non-zero sample (obs.TextLines).
func printMetrics(w *platform.World) {
	for _, line := range obs.TextLines(w.Metrics()) {
		fmt.Println(line)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hyscale-sim: %v\n", err)
	os.Exit(1)
}
