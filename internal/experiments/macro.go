package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"hyscale/internal/core"
	"hyscale/internal/lb"
	"hyscale/internal/loadgen"
	"hyscale/internal/platform"
	"hyscale/internal/runner"
	"hyscale/internal/scalermgr"
	"hyscale/internal/workload"
)

// The §VI macro-benchmarks run 15 emulated microservices for an hour on the
// paper's 24-node cluster (5 nodes are load balancers, so 19 workers host
// containers) and compare the scaling algorithms under low-burst (stable)
// and high-burst (spiking) client load.

// LoadShape selects the client load pattern of §VI.
type LoadShape int

// Load shapes.
const (
	LowBurst LoadShape = iota + 1
	HighBurst
)

// String implements fmt.Stringer.
func (l LoadShape) String() string {
	if l == HighBurst {
		return "high-burst"
	}
	return "low-burst"
}

// macroColumns render the request-statistics graph data (failed % split by
// class plus mean response time per algorithm).
var macroColumns = []column{
	meanColumn,
	p95Column,
	failedColumn,
	cellf("removal %", "%.2f", func(r *Row) float64 { return r.Summary.RemovalFailedPercent() }),
	cellf("connection %", "%.2f", func(r *Row) float64 { return r.Summary.ConnectionFailedPercent() }),
	scaleOutsColumn,
	scaleInsColumn,
	cellf("vertical ops", "%d", func(r *Row) uint64 { return r.Actions.Vertical }),
}

// serviceLoad couples a spec with its load pattern.
type serviceLoad struct {
	spec    workload.ServiceSpec
	target  float64
	pattern loadgen.Pattern
}

// macroDuration returns the experiment horizon: one hour at Scale=1.
func macroDuration(opts Options) time.Duration {
	return time.Duration(float64(time.Hour) * opts.Scale)
}

// macroRow parameterises one algorithm run inside a macro experiment beyond
// the algorithm itself: decision period, placement heuristic, churn schedule
// and named setup hooks. Each row COMPILES to a runner.RunSpec — the macro
// experiments are spec compilers, not executors.
type macroRow struct {
	// label names the row in the result table; defaults to algorithm.
	label string
	// algorithm is the runner.NewAlgorithm spelling ("hybridmem-noreclaim" …).
	algorithm string
	// monitorPeriod overrides the 5 s default when non-zero.
	monitorPeriod time.Duration
	// placement overrides the node-choice heuristic.
	placement core.Placement
	// lbPolicy overrides the load-balancer routing policy when non-zero.
	lbPolicy lb.Policy
	// nodeFailures / nodeRecoveries schedule machine churn.
	nodeFailures   []runner.NodeFailure
	nodeRecoveries []runner.NodeRecovery
	// hooks names registered runner hooks (world mutations a declarative
	// field cannot express, e.g. the heterogeneous node swap).
	hooks []string
	// manager carries the multi-metric manager configuration for
	// "manager"/"manager-cost" rows; nil rows use defaults.
	manager *scalermgr.Config
}

func (r macroRow) rowLabel() string {
	if r.label != "" {
		return r.label
	}
	return r.algorithm
}

// compile lowers a row to a self-contained RunSpec. Every row of a macro
// experiment pins the SAME seed (opts.Seed) so all algorithms face an
// identical arrival sequence — the paper's comparison discipline.
func (r macroRow) compile(name string, services []serviceLoad, opts Options) runner.RunSpec {
	cfg := platform.DefaultConfig(opts.Seed)
	if r.monitorPeriod > 0 {
		cfg.MonitorPeriod = r.monitorPeriod
	}
	if r.lbPolicy != 0 {
		cfg.LBPolicy = r.lbPolicy
	}
	algoCfg := core.DefaultConfig()
	algoCfg.Placement = r.placement
	spec := runner.RunSpec{
		Name:           name + "/" + r.rowLabel(),
		Label:          r.rowLabel(),
		Seed:           opts.Seed,
		Platform:       cfg,
		Algorithm:      r.algorithm,
		AlgoConfig:     &algoCfg,
		Manager:        r.manager,
		Duration:       macroDuration(opts),
		NodeFailures:   r.nodeFailures,
		NodeRecoveries: r.nodeRecoveries,
		Hooks:          r.hooks,
	}
	for _, s := range services {
		spec.Services = append(spec.Services, runner.ServiceRun{
			Spec: s.spec, Target: s.target, Load: runner.FromPattern(s.pattern),
		})
	}
	return spec
}

// macroGrid runs one macro table: every row runs the same service set on
// the "algorithm" axis, labelled by its rowLabel.
func macroGrid(title string, services []serviceLoad, rows []macroRow, opts Options) (*Grid, error) {
	labels, rowOf := axisOf(rows, macroRow.rowLabel)
	g := &Grid{Title: title, Axes: []string{"algorithm"}, columns: macroColumns}
	return g.run(product(labels), func(l []string) runner.RunSpec {
		return rowOf[l[0]].compile(title, services, opts)
	}, opts)
}

// algorithmRows returns one default row per algorithm.
func algorithmRows(algorithms ...string) []macroRow {
	rows := make([]macroRow, len(algorithms))
	for i, a := range algorithms {
		rows[i] = macroRow{algorithm: a}
	}
	return rows
}

// patternFor builds the per-service load pattern. Services are phase
// shifted so peaks do not all coincide, like independent tenants.
func patternFor(shape LoadShape, baseRPS float64, idx, total int) loadgen.Pattern {
	period := 8 * time.Minute
	shift := time.Duration(float64(period) * float64(idx) / float64(total))
	switch shape {
	case HighBurst:
		return loadgen.Burst{
			Base:       baseRPS * 0.8,
			Peak:       baseRPS * 2.4,
			Period:     10 * time.Minute,
			BurstLen:   2 * time.Minute,
			PhaseShift: time.Duration(float64(10*time.Minute) * float64(idx) / float64(total)),
		}
	default:
		return loadgen.Wave{
			Base:       baseRPS,
			Amplitude:  0.30,
			Period:     period,
			PhaseShift: shift,
		}
	}
}

// makeServices builds the paper's 15 emulated microservices of one kind,
// with per-service parameter variation drawn deterministically from seed.
func makeServices(kind workload.Kind, n int, shape LoadShape, seed int64) []serviceLoad {
	rng := rand.New(rand.NewSource(seed))
	out := make([]serviceLoad, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s-%02d", kind, i)
		spec := workload.ServiceSpec{
			Name: name, Kind: kind,
			CPUOverheadPerRequest: 0.01,
			BackgroundCPU:         0.035,
			BaselineMemMB:         300,
			InitialReplicaCPU:     1.0,
			InitialReplicaMemMB:   768,
			MinReplicas:           1,
			MaxReplicas:           10,
			Timeout:               30 * time.Second,
		}
		var baseRPS float64
		switch kind {
		case workload.KindCPUBound:
			spec.CPUPerRequest = 0.08 + rng.Float64()*0.12 // 0.08..0.20 cpu-s
			spec.MemPerRequest = 2
			// Sized so the 15 services' peaks push the cluster toward its
			// capacity (the "over-encumbered during peak hours" regime of
			// §I) — where coarse fixed-size replicas hit placement limits
			// that fine-grained vertical scaling can still pack around.
			baseRPS = 14 + rng.Float64()*6
		case workload.KindMemoryBound:
			spec.CPUPerRequest = 0.02
			spec.MemPerRequest = 20 + rng.Float64()*20
			baseRPS = 8 + rng.Float64()*6
		case workload.KindNetworkBound:
			spec.NetPerRequest = 4 + rng.Float64()*4 // megabits
			// Networking system calls cost moderate CPU (the paper notes
			// this keeps CPU-driven scalers competitive at low burst), but
			// CPU usage is a weak proxy for bandwidth need, which is what
			// sinks them under high bursts.
			spec.CPUPerRequest = 0.02 + rng.Float64()*0.01
			spec.MemPerRequest = 4
			spec.InitialReplicaNetMbps = 50
			baseRPS = 4 + rng.Float64()*1.5
		case workload.KindMixed:
			spec.CPUPerRequest = 0.10 + rng.Float64()*0.10
			// Mixed services hold a large transient footprint per request,
			// so bursts push a fixed-size replica over its memory limit —
			// the swap cliff that memory-blind algorithms cannot see.
			spec.MemPerRequest = 80 + rng.Float64()*40
			spec.InitialReplicaMemMB = 640
			baseRPS = 8 + rng.Float64()*4
		}
		out = append(out, serviceLoad{
			spec:    spec,
			target:  0.5,
			pattern: patternFor(shape, baseRPS, i, n),
		})
	}
	return out
}

// RunFig6 reproduces Figure 6 (a: low-burst, b: high-burst): 15 CPU-bound
// services; kubernetes vs hybrid vs hybridmem.
func RunFig6(shape LoadShape, opts Options) (*Grid, error) {
	opts = opts.scaled()
	services := makeServices(workload.KindCPUBound, 15, shape, opts.Seed)
	sub := "6a"
	if shape == HighBurst {
		sub = "6b"
	}
	return macroGrid(
		fmt.Sprintf("Figure %s: CPU-bound, %s", sub, shape),
		services,
		algorithmRows("kubernetes", "hybrid", "hybridmem"),
		opts,
	)
}

// RunFig7 reproduces Figure 7 (a: low-burst, b: high-burst): 15 mixed
// CPU+memory services; kubernetes vs hybrid vs hybridmem.
func RunFig7(shape LoadShape, opts Options) (*Grid, error) {
	opts = opts.scaled()
	services := makeServices(workload.KindMixed, 15, shape, opts.Seed)
	sub := "7a"
	if shape == HighBurst {
		sub = "7b"
	}
	return macroGrid(
		fmt.Sprintf("Figure %s: mixed CPU+memory, %s", sub, shape),
		services,
		algorithmRows("kubernetes", "hybrid", "hybridmem"),
		opts,
	)
}

// RunFig8 reproduces Figure 8 (a: low-burst, b: high-burst): 15
// network-bound services; all four algorithms including the dedicated
// network scaler.
func RunFig8(shape LoadShape, opts Options) (*Grid, error) {
	opts = opts.scaled()
	services := makeServices(workload.KindNetworkBound, 15, shape, opts.Seed)
	sub := "8a"
	if shape == HighBurst {
		sub = "8b"
	}
	return macroGrid(
		fmt.Sprintf("Figure %s: network-bound, %s", sub, shape),
		services,
		algorithmRows("kubernetes", "hybrid", "hybridmem", "network"),
		opts,
	)
}
