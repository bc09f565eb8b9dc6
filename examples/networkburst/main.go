// Networkburst: demonstrates the dedicated network scaling algorithm
// (§IV-A2) against the Kubernetes CPU baseline on bandwidth-hungry services
// under high-burst traffic — the Figure 8b scenario. The network scaler
// reads egress bandwidth and scales out before the tx queues saturate; the
// CPU-driven baseline reacts to a weak proxy signal and lags.
//
//	go run ./examples/networkburst
package main

import (
	"fmt"
	"log"
	"time"

	"hyscale"
)

func main() {
	for _, algo := range []hyscale.AlgorithmName{hyscale.AlgoKubernetes, hyscale.AlgoNetwork} {
		cfg := hyscale.DefaultSimConfig(3)
		cfg.Algorithm = algo
		sim, err := hyscale.NewSimulation(cfg)
		if err != nil {
			log.Fatal(err)
		}

		// Streaming-style services: 6 Mb responses shaped at 60 Mbps per
		// replica, bursting to nearly 3x base rate.
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("stream-%d", i)
			spec := hyscale.NetworkBoundService(name, 6, 60)
			load := hyscale.BurstLoad(4, 11, 10*time.Minute, 2*time.Minute)
			if err := sim.AddService(spec, 0.5, load); err != nil {
				log.Fatal(err)
			}
		}

		if err := sim.Run(25 * time.Minute); err != nil {
			log.Fatal(err)
		}

		r := sim.Report()
		fmt.Printf("%-11s mean=%-8v p95=%-8v failed=%.2f%%\n",
			algo,
			r.MeanLatency.Round(time.Millisecond),
			r.P95Latency.Round(time.Millisecond),
			r.FailedPercent())
	}
}
