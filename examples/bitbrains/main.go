// Bitbrains: replay the GWA-T-12 Bitbrains "Rnd" data-centre workload
// (§VI-B) against the CPU+memory hybrid autoscaler. By default the example
// uses the synthetic twin of the trace; point -dir at a directory of real
// GWA-T-12 per-VM CSV files to replay the genuine dataset.
//
//	go run ./examples/bitbrains
//	go run ./examples/bitbrains -dir /data/bitbrains/rnd/2013-7
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"hyscale"
	"hyscale/internal/loadgen"
	"hyscale/internal/trace"
)

func main() {
	dir := flag.String("dir", "", "directory of real GWA-T-12 per-VM CSV files (empty = synthetic twin)")
	dur := flag.Duration("duration", 30*time.Minute, "simulated duration")
	flag.Parse()

	var tr *trace.Trace
	if *dir != "" {
		var err error
		tr, err = trace.LoadGWADir(os.DirFS("/"), (*dir)[1:])
		if err != nil {
			log.Fatalf("loading real trace: %v", err)
		}
		fmt.Printf("replaying real trace: %d VM series\n", len(tr.Series))
	} else {
		cfg := trace.DefaultRndConfig(1)
		cfg.Duration = *dur
		tr = trace.GenerateRnd(cfg)
		fmt.Printf("replaying synthetic Rnd twin: %d VM series\n", len(tr.Series))
	}

	sim, err := hyscale.NewSimulation(hyscale.DefaultSimConfig(1))
	if err != nil {
		log.Fatal(err)
	}

	// Partition the VM series into 10 groups; each group's combined CPU and
	// memory usage drives one mixed microservice's request rate.
	parts := tr.Partition(10)
	for i, part := range parts {
		name := fmt.Sprintf("tenant-%02d", i)
		spec := hyscale.MixedService(name, 0.12, 90)
		s := part
		pattern := loadgen.Func(func(at time.Duration) float64 {
			cpu, mem := s.At(at)
			return 14 * (0.6*cpu + 0.4*mem) / 40
		})
		if err := sim.AddService(spec, 0.5, pattern); err != nil {
			log.Fatal(err)
		}
	}

	if err := sim.Run(*dur); err != nil {
		log.Fatal(err)
	}

	fmt.Println("aggregate:", sim.Report())
	m := sim.Metrics()
	actions := func(kind string) float64 {
		v, _ := hyscale.Lookup(m, "hyscale_scaling_actions_total", `kind="`+kind+`"`)
		return v
	}
	fmt.Printf("scaling actions: %.0f vertical, %.0f scale-outs, %.0f scale-ins\n",
		actions("vertical"), actions("scale_out"), actions("scale_in"))
}
