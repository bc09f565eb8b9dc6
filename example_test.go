package hyscale_test

import (
	"fmt"
	"time"

	"hyscale"
)

// ExampleNewSimulation runs one CPU-bound microservice under the
// CPU+memory hybrid autoscaler and prints whether the run stayed healthy.
// Runs are deterministic for a fixed seed.
func ExampleNewSimulation() {
	cfg := hyscale.DefaultSimConfig(42)
	cfg.Nodes = 8
	sim, err := hyscale.NewSimulation(cfg)
	if err != nil {
		panic(err)
	}
	svc := hyscale.CPUBoundService("api", 0.1)
	if err := sim.AddService(svc, 0.5, hyscale.ConstantLoad(10)); err != nil {
		panic(err)
	}
	if err := sim.Run(5 * time.Minute); err != nil {
		panic(err)
	}
	r := sim.Report()
	fmt.Printf("healthy=%v requests=%d\n", r.FailedPercent() < 1, r.Requests)
	// Output: healthy=true requests=2999
}

// ExampleNewAlgorithm shows how the four paper algorithms are constructed.
func ExampleNewAlgorithm() {
	for _, name := range []hyscale.AlgorithmName{
		hyscale.AlgoKubernetes,
		hyscale.AlgoNetwork,
		hyscale.AlgoHyScaleCPU,
		hyscale.AlgoHyScaleCPUMem,
	} {
		algo, err := hyscale.NewAlgorithm(name)
		if err != nil {
			panic(err)
		}
		fmt.Println(algo.Name())
	}
	// Output:
	// kubernetes
	// network
	// hybrid
	// hybridmem
}

// ExampleBurstLoad demonstrates the paper's high-burst load shape.
func ExampleBurstLoad() {
	load := hyscale.BurstLoad(2, 20, 10*time.Minute, 2*time.Minute)
	fmt.Println(load.Rate(1*time.Minute), load.Rate(5*time.Minute))
	// Output: 20 2
}
