package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"hyscale/internal/platform"
	"hyscale/internal/runner"
	"hyscale/internal/workload"
)

// The scale experiment sweeps the cluster far past the paper's 24-node /
// 15-service world, zoned and unzoned, and reports what each configuration
// simulated. It is a deterministic functional sweep: the output depends only
// on the seed and scale. Simulator speed is measured by simbench.

// ScalePoint is one node-count × service-count configuration's outcome.
type ScalePoint struct {
	Nodes    int `json:"nodes"`
	Services int `json:"services"`
	// Zones is the control-plane shard count (0 or 1 = the classic single
	// central monitor).
	Zones int `json:"zones,omitempty"`

	// SimSeconds is the simulated horizon the run covered.
	SimSeconds float64 `json:"simSeconds"`

	// Requests is the total client requests the run generated.
	Requests uint64 `json:"requests"`
	// ScaleOuts counts autoscaler scale-out actions, as a sanity signal that
	// the control plane actually worked at this scale.
	ScaleOuts uint64 `json:"scaleOuts"`
}

// ScaleResult is the sweep across all configurations.
type ScaleResult struct {
	Points []ScalePoint
}

// Table renders the sweep.
func (r *ScaleResult) Table() *Table {
	t := &Table{
		Title:   "Scale sweep: requests and scale-outs by cluster size",
		Columns: []string{"nodes", "services", "zones", "sim s", "requests", "scale-outs"},
	}
	for _, p := range r.Points {
		zones := p.Zones
		if zones < 1 {
			zones = 1
		}
		t.AddRow(
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%d", p.Services),
			fmt.Sprintf("%d", zones),
			fmt.Sprintf("%.0f", p.SimSeconds),
			fmt.Sprintf("%d", p.Requests),
			fmt.Sprintf("%d", p.ScaleOuts),
		)
	}
	return t
}

// ScaleConfig is one sweep configuration: cluster size plus the control-plane
// shard count (Zones <= 1 runs the classic single monitor).
type ScaleConfig struct {
	Nodes    int
	Services int
	Zones    int
}

// ScaleGrid is the pinned sweep: the paper's 24/15 testbed, two intermediate
// datacenter slices, the 1,000-node / 500-service point — and the zoned
// control plane at that same point plus the 5,000-node / 2,000-service
// configuration.
func ScaleGrid() []ScaleConfig {
	return []ScaleConfig{
		{Nodes: 24, Services: 15},
		{Nodes: 96, Services: 60},
		{Nodes: 200, Services: 100},
		{Nodes: 1000, Services: 500},
		{Nodes: 1000, Services: 500, Zones: 8},
		{Nodes: 5000, Services: 2000, Zones: 16},
	}
}

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

// scaleDuration returns the per-point simulated horizon: two minutes at
// Scale=1, enough for ~24 monitor periods and a full load-wave cycle.
func scaleDuration(opts Options) time.Duration {
	return time.Duration(float64(2*time.Minute) * opts.Scale)
}

// RunScale runs every ScaleGrid point through the executor and reports each
// one's request and scale-out counts, in grid order.
func RunScale(opts Options) (*ScaleResult, error) {
	opts = opts.scaled()
	duration := scaleDuration(opts)
	grid := ScaleGrid()
	specs := make([]runner.RunSpec, len(grid))
	for i, g := range grid {
		nodes, services := g.Nodes, g.Services
		cfg := platform.DefaultConfig(opts.Seed)
		cfg.Nodes = nodes
		name := fmt.Sprintf("scale/%dn-%ds", nodes, services)
		if g.Zones > 1 {
			cfg.Zones = g.Zones
			name = fmt.Sprintf("%s-%dz", name, g.Zones)
		}
		specs[i] = runner.RunSpec{
			Name:      name,
			Seed:      opts.Seed,
			Platform:  cfg,
			Algorithm: "hybridmem",
			Duration:  duration,
			Services:  scaleServices(services, opts.Seed),
		}
	}
	results, err := execute(specs, opts)
	if err != nil {
		return nil, err
	}
	res := &ScaleResult{}
	for i, g := range grid {
		res.Points = append(res.Points, ScalePoint{
			Nodes:      g.Nodes,
			Services:   g.Services,
			Zones:      g.Zones,
			SimSeconds: duration.Seconds(),
			Requests:   results[i].Summary.Requests,
			ScaleOuts:  results[i].Actions.ScaleOuts,
		})
	}
	return res, nil
}
