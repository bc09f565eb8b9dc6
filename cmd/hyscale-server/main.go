// Command hyscale-server runs a live autoscaling simulation and serves the
// control-plane API over HTTP: the simulation advances in real time (one
// simulated second per wall-clock tick by default) while /v1/... endpoints
// expose services, replicas, nodes, costs and Prometheus-style metrics, and
// POST /v1/services/{name}/scale applies manual overrides.
//
//	hyscale-server -addr :8080 -algo hybridmem -kind mixed -services 8
//	curl localhost:8080/v1/services | jq .
//	curl -XPOST localhost:8080/v1/services/svc-00/scale -d '{"replicas":4}'
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sync"
	"time"

	"hyscale"
	"hyscale/internal/httpapi"
	"hyscale/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		algo     = flag.String("algo", "hybridmem", "autoscaler: kubernetes|network|hybrid|hybridmem|manager|manager-cost (see docs/ALGORITHMS.md)")
		kind     = flag.String("kind", "cpu", "service kind: cpu|mem|net|mixed")
		services = flag.Int("services", 5, "number of microservices")
		nodes    = flag.Int("nodes", 19, "worker nodes")
		rps      = flag.Float64("rps", 12, "base request rate per service")
		speed    = flag.Float64("speed", 1.0, "simulated seconds advanced per wall second")
		zones    = flag.Int("zones", 1, "control-plane zones: >1 shards the monitor and serves per-zone data at /v1/zones")
		observe  = flag.Bool("observe", false, "record the decision-trace journal and serve it at /v1/timeline")
	)
	flag.Parse()

	cfg := hyscale.DefaultSimConfig(time.Now().UnixNano() % (1 << 31))
	cfg.Nodes = *nodes
	cfg.Zones = *zones
	cfg.Algorithm = hyscale.AlgorithmName(*algo)
	cfg.Observe = *observe
	sim, err := hyscale.NewSimulation(cfg)
	if err != nil {
		fatal(err)
	}
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
		if err := sim.AddService(spec, 0.5, hyscale.WaveLoad(*rps, 0.3, 8*time.Minute)); err != nil {
			fatal(err)
		}
	}

	var mu sync.Mutex
	api := httpapi.New(sim.World(), httpapi.WithLocker(&mu))

	// Advance the simulation in the background: `speed` simulated seconds
	// per wall-clock second, in 100ms steps.
	go func() {
		step := time.Duration(float64(100*time.Millisecond) * *speed)
		ticker := time.NewTicker(100 * time.Millisecond)
		defer ticker.Stop()
		for range ticker.C {
			mu.Lock()
			horizon := sim.World().Engine().Now() + step
			if err := sim.World().Run(horizon); err != nil {
				mu.Unlock()
				log.Printf("engine stopped: %v", err)
				return
			}
			mu.Unlock()
		}
	}()

	log.Printf("hyscale-server: %s on %d nodes, %d %s services, serving %s", *algo, *nodes, *services, *kind, *addr)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
	}
	if err := srv.ListenAndServe(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hyscale-server: %v\n", err)
	os.Exit(1)
}
