// Quickstart: run one CPU-bound microservice under the HYSCALE_CPU+Mem
// hybrid autoscaler for 10 simulated minutes of wave-shaped load and print
// the user-perceived performance report.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"hyscale"
)

func main() {
	// A 19-worker cluster (the paper's testbed minus the five LB nodes)
	// managed by the CPU+memory hybrid algorithm.
	sim, err := hyscale.NewSimulation(hyscale.DefaultSimConfig(42))
	if err != nil {
		log.Fatal(err)
	}

	// One microservice consuming 120 ms of CPU per request, targeted at
	// 50 % utilization, under a ±30 % sinusoidal load around 15 req/s.
	svc := hyscale.CPUBoundService("api", 0.12)
	if err := sim.AddService(svc, 0.5, hyscale.WaveLoad(15, 0.3, 4*time.Minute)); err != nil {
		log.Fatal(err)
	}

	// Ten minutes of simulated time run in milliseconds of wall time.
	if err := sim.Run(10 * time.Minute); err != nil {
		log.Fatal(err)
	}

	fmt.Println("aggregate:", sim.Report())
	fmt.Println("replicas at end:", sim.Replicas("api"))
	m := sim.Metrics()
	actions := func(kind string) float64 {
		v, _ := hyscale.Lookup(m, "hyscale_scaling_actions_total", `kind="`+kind+`"`)
		return v
	}
	fmt.Printf("scaling actions: %.0f vertical, %.0f scale-outs, %.0f scale-ins\n",
		actions("vertical"), actions("scale_out"), actions("scale_in"))
}
