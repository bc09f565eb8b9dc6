package experiments

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"hyscale/internal/platform"
	"hyscale/internal/runner"
	"hyscale/internal/workload"
)

// The scale experiment sweeps the cluster far past the paper's 24-node /
// 15-service world, zoned and unzoned, and reports what each configuration
// simulated. It is a deterministic functional sweep: the output depends only
// on the seed and scale. Simulator speed is measured by simbench.

// scaleServices builds n CPU-bound services with per-service variation drawn
// deterministically from seed, shaped like the macro workload but with a
// bounded replica ceiling so the biggest grid points stay placeable.
func scaleServices(n int, seed int64) []runner.ServiceRun {
	rng := rand.New(rand.NewSource(seed))
	out := make([]runner.ServiceRun, 0, n)
	for i := 0; i < n; i++ {
		spec := workload.ServiceSpec{
			Name: fmt.Sprintf("svc-%03d", i), Kind: workload.KindCPUBound,
			CPUPerRequest:         0.05 + rng.Float64()*0.05,
			CPUOverheadPerRequest: 0.01,
			MemPerRequest:         2,
			BackgroundCPU:         0.02,
			BaselineMemMB:         200,
			InitialReplicaCPU:     1.0,
			InitialReplicaMemMB:   512,
			MinReplicas:           1,
			MaxReplicas:           4,
			Timeout:               30 * time.Second,
		}
		baseRPS := 8 + rng.Float64()*8
		out = append(out, runner.ServiceRun{
			Spec:   spec,
			Target: 0.5,
			Load: runner.LoadSpec{
				Type:      "wave",
				Base:      baseRPS,
				Amplitude: 0.3,
				Period:    4 * time.Minute,
				Phase:     time.Duration(float64(4*time.Minute) * float64(i) / float64(n)),
			},
		})
	}
	return out
}

// RunScale sweeps the pinned cluster sizes: the paper's 24/15 testbed, two
// intermediate datacenter slices, the 1,000-node / 500-service point — and
// the zoned control plane at that same point plus the 5,000-node /
// 2,000-service configuration (zones 1 runs the classic single monitor).
// Each point runs two simulated minutes at Scale=1, enough for ~24 monitor
// periods and a full load-wave cycle, and reports its request and
// scale-out counts.
func RunScale(opts Options) (*Grid, error) {
	opts = opts.scaled()
	g := &Grid{
		Title: "Scale sweep: requests and scale-outs by cluster size",
		Axes:  []string{"nodes", "services", "zones"},
		columns: []column{
			cellf("sim s", "%.0f", func(r *Row) float64 { return r.Spec.Duration.Seconds() }),
			cellf("requests", "%d", func(r *Row) uint64 { return r.Summary.Requests }),
			scaleOutsColumn,
		},
	}
	cells := [][]string{
		{"24", "15", "1"},
		{"96", "60", "1"},
		{"200", "100", "1"},
		{"1000", "500", "1"},
		{"1000", "500", "8"},
		{"5000", "2000", "16"},
	}
	return g.run(cells, func(l []string) runner.RunSpec {
		nodes, _ := strconv.Atoi(l[0])
		services, _ := strconv.Atoi(l[1])
		zones, _ := strconv.Atoi(l[2])
		cfg := platform.DefaultConfig(opts.Seed)
		cfg.Nodes = nodes
		name := fmt.Sprintf("scale/%dn-%ds", nodes, services)
		if zones > 1 {
			cfg.Zones = zones
			name = fmt.Sprintf("%s-%dz", name, zones)
		}
		return runner.RunSpec{
			Name:      name,
			Seed:      opts.Seed,
			Platform:  cfg,
			Algorithm: "hybridmem",
			Duration:  time.Duration(float64(2*time.Minute) * opts.Scale),
			Services:  scaleServices(services, opts.Seed),
		}
	}, opts)
}
