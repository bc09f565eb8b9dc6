// Algocompare: the paper's core claim in one program. Run the same bursty
// mixed CPU+memory workload under all three autoscalers (Kubernetes HPA,
// HYSCALE_CPU, HYSCALE_CPU+Mem) and compare response times and failure
// rates — reproducing in miniature the Figure 7 result that memory-blind
// scaling falls off the swap cliff while the memory-aware hybrid does not.
//
//	go run ./examples/algocompare
package main

import (
	"fmt"
	"log"
	"time"

	"hyscale"
)

func main() {
	algos := []hyscale.AlgorithmName{
		hyscale.AlgoKubernetes,
		hyscale.AlgoHyScaleCPU,
		hyscale.AlgoHyScaleCPUMem,
	}

	fmt.Printf("%-12s %-14s %-10s %-10s\n", "algorithm", "mean response", "failed %", "actions (V/out/in)")
	for _, algo := range algos {
		cfg := hyscale.DefaultSimConfig(7)
		cfg.Algorithm = algo
		sim, err := hyscale.NewSimulation(cfg)
		if err != nil {
			log.Fatal(err)
		}

		// Five mixed services with heavy per-request memory footprints and
		// spiky load: each burst pushes fixed-size replicas past their
		// memory limit.
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("mixed-%d", i)
			spec := hyscale.MixedService(name, 0.14, 110)
			load := hyscale.BurstLoad(5, 16, 8*time.Minute, 2*time.Minute)
			if err := sim.AddService(spec, 0.5, load); err != nil {
				log.Fatal(err)
			}
		}

		if err := sim.Run(20 * time.Minute); err != nil {
			log.Fatal(err)
		}

		r := sim.Report()
		a := sim.Actions()
		fmt.Printf("%-12s %-14v %-10.2f %d/%d/%d\n",
			algo, r.MeanLatency.Round(time.Millisecond), r.FailedPercent(),
			a.Vertical, a.ScaleOuts, a.ScaleIns)
	}
}
