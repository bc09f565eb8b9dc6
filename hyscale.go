// Package hyscale is the public API of this repository: a faithful,
// simulation-backed reproduction of "HyScale: Hybrid and Network Scaling of
// Dockerized Microservices in Cloud Data Centres" (Wong, Kwan, Jacobsen,
// Muthusamy — ICDCS 2019).
//
// The package exposes three layers:
//
//   - Algorithms: the paper's autoscalers — the Kubernetes HPA baseline, the
//     dedicated network scaler, and the two hybrid HyScale algorithms — as
//     pure decision functions over cluster snapshots (NewKubernetes,
//     NewNetworkHPA, NewHyScaleCPU, NewHyScaleCPUMem).
//
//   - Platform: the autoscaler platform of §V (Monitor, node managers, load
//     balancers) wired to a deterministic cluster simulator that reproduces
//     the physical effects of §III (CPU co-location contention, the memory
//     swap cliff, NIC tx-queue contention). Build one with NewSimulation.
//
//   - Experiments: a harness that regenerates every table and figure of the
//     paper's evaluation (see the Run* functions and cmd/hyscale-bench).
//
// A minimal session:
//
//	sim, _ := hyscale.NewSimulation(hyscale.DefaultSimConfig(1))
//	svc := hyscale.CPUBoundService("api", 0.12)
//	_ = sim.AddService(svc, 0.5, hyscale.WaveLoad(12, 0.3, 8*time.Minute))
//	_ = sim.Run(30 * time.Minute)
//	fmt.Println(sim.Report())
package hyscale

import (
	"fmt"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/core"
	"hyscale/internal/faults"
	"hyscale/internal/loadgen"
	"hyscale/internal/metrics"
	"hyscale/internal/monitor"
	"hyscale/internal/obs"
	"hyscale/internal/platform"
	"hyscale/internal/resilience"
	"hyscale/internal/runner"
	"hyscale/internal/scalermgr"
	"hyscale/internal/workload"
)

// AlgorithmName selects one of the paper's autoscaling algorithms.
type AlgorithmName string

// The four algorithms evaluated in the paper.
const (
	// AlgoKubernetes is the horizontal CPU autoscaler baseline (§IV-A1).
	AlgoKubernetes AlgorithmName = "kubernetes"
	// AlgoNetwork is the dedicated horizontal network scaler (§IV-A2).
	AlgoNetwork AlgorithmName = "network"
	// AlgoHyScaleCPU is the CPU-only hybrid algorithm (§IV-B1).
	AlgoHyScaleCPU AlgorithmName = "hybrid"
	// AlgoHyScaleCPUMem is the CPU+memory hybrid algorithm (§IV-B2).
	AlgoHyScaleCPUMem AlgorithmName = "hybridmem"
	// AlgoManager is the multi-metric scaler manager: CPU, memory, network
	// and queue-depth scalers over stable/burst sliding windows, merged
	// max-wins (see internal/scalermgr).
	AlgoManager AlgorithmName = "manager"
	// AlgoManagerCost is the manager with the cost-optimal allocator on top:
	// optimizer → fallback → hold decision hierarchy, binpack placement,
	// drain-preferring scale-in and retention-aware scale-to-zero.
	AlgoManagerCost AlgorithmName = "manager-cost"
	// AlgoNone disables autoscaling (fixed allocations).
	AlgoNone AlgorithmName = "none"
)

// NewAlgorithm constructs a scaling algorithm with the paper's default
// parameters (5 s decisions, 3 s/50 s rescale intervals, 0.1 tolerance,
// 0.1/0.25 CPU thresholds). Beyond the four base names it accepts the
// runner's ablation suffixes ("hybridmem-noreclaim", ...) and the
// "-predictive" wrapper. AlgoNone (and "") returns a nil algorithm.
func NewAlgorithm(name AlgorithmName) (core.Algorithm, error) {
	algo, err := runner.NewAlgorithm(string(name), core.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("hyscale: %w", err)
	}
	return algo, nil
}

// PlatformConfig configures the simulated platform: cluster shape, physics
// tick, monitor period, zones, faults, self-healing, observation, call graph
// and resilience. See internal/platform for the field reference.
type PlatformConfig = platform.Config

// SimConfig configures a Simulation: the platform plus the autoscaler. Start
// from DefaultSimConfig and edit. A PlatformConfig that leaves both Nodes
// and Tick zero is replaced whole by the paper's defaults, as in a RunSpec,
// so it may set no field other than Seed and Observe.
type SimConfig struct {
	PlatformConfig
	// Algorithm selects the autoscaler; empty or AlgoNone runs without one.
	Algorithm AlgorithmName
	// Manager tunes the AlgoManager / AlgoManagerCost algorithms — sliding
	// window widths, per-scaler weights and targets, merge policy, and the
	// cost allocator's freshness/retention knobs. Nil means scalermgr
	// defaults; ignored by every other algorithm.
	Manager *ManagerConfig
}

// DefaultSimConfig returns the paper's experimental setup (19 worker nodes of
// 4 cores / 8 GiB / 1 Gbps, 5 s monitor period, 100 ms physics tick) under
// the flagship HYSCALE_CPU+Mem autoscaler.
func DefaultSimConfig(seed int64) SimConfig {
	return SimConfig{PlatformConfig: platform.DefaultConfig(seed), Algorithm: AlgoHyScaleCPUMem}
}

// FaultConfig re-exports the fault-injection configuration for callers of
// the public API.
type FaultConfig = faults.Config

// FaultWindow scopes fault injection to a target and a time interval.
type FaultWindow = faults.Window

// SelfHealingConfig configures the Monitor's failure detector, desired-state
// reconciler and checkpoint/restore.
type SelfHealingConfig = monitor.SelfHealing

// NodeCondition is one node's failure-detector state.
type NodeCondition = monitor.NodeCondition

// DefaultSelfHealing returns the recommended self-healing settings (suspect
// after 2 missed polls, dead after 4, 10 s re-placement cooldown,
// checkpointing every poll).
func DefaultSelfHealing() SelfHealingConfig { return monitor.DefaultSelfHealing() }

// Simulation is a fully wired autoscaler platform running on the simulated
// cluster. It wraps the internal platform with a stable public surface.
type Simulation struct {
	world *platform.World
}

// NewSimulation builds a simulation from cfg. It compiles the config to a
// RunSpec and validates and materialises it through the same runner layer
// every experiment uses.
func NewSimulation(cfg SimConfig) (*Simulation, error) {
	spec := NewRunSpec("simulation", cfg, 0)
	w, _, err := runner.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("hyscale: %w", err)
	}
	return &Simulation{world: w}, nil
}

// AddService registers a microservice with its utilization target and load
// pattern and deploys its minimum replicas.
func (s *Simulation) AddService(spec workload.ServiceSpec, targetUtil float64, pattern loadgen.Pattern) error {
	return s.world.AddService(spec, targetUtil, pattern)
}

// Run advances the simulation to the given horizon of simulated time.
func (s *Simulation) Run(d time.Duration) error { return s.world.Run(d) }

// Report returns the aggregate user-perceived performance summary.
func (s *Simulation) Report() metrics.Summary { return s.world.Summary() }

// ServiceReport returns one service's summary.
func (s *Simulation) ServiceReport(name string) metrics.Summary {
	return s.world.Recorder().SummarizeService(name)
}

// NodeConditions returns every attached node's failure-detector state.
func (s *Simulation) NodeConditions() []NodeCondition { return s.world.Control().NodeConditions() }

// Replicas returns the live replica count of a service.
func (s *Simulation) Replicas(service string) int {
	return s.world.Control().ReplicaCount(service)
}

// ClampedEvents counts simulator events that had to be clamped to "now"
// because a component scheduled them in the past. Non-zero values flag
// stale-timestamp bugs in custom scenario code.
func (s *Simulation) ClampedEvents() uint64 { return s.world.ClampedEvents() }

// World exposes the underlying platform for advanced scenarios (manual
// placement, stress containers, custom events). Most callers should not
// need it.
func (s *Simulation) World() *platform.World { return s.world }

// --- Call graphs and resilience ---------------------------------------------

// CallGraph declares the per-service call DAG: which downstream services each
// request fans out to, with what probability or count.
type CallGraph = workload.CallGraph

// CallEdge is one dependency edge of a CallGraph.
type CallEdge = workload.CallEdge

// ManagerConfig tunes the multi-metric scaler manager (AlgoManager /
// AlgoManagerCost): window widths, per-scaler weights/targets, the merge
// policy and the cost allocator's knobs.
type ManagerConfig = scalermgr.Config

// ManagerScalerConfig configures one scaler inside the manager.
type ManagerScalerConfig = scalermgr.ScalerConfig

// ManagerServiceTargets carries one service's SLO/cost objectives for the
// manager's cost-optimal allocator.
type ManagerServiceTargets = scalermgr.ServiceTargets

// ManagerRecommendation is one scaler's latest per-service recommendation,
// surfaced for observability.
type ManagerRecommendation = scalermgr.Recommendation

// ManagerRecommendations returns the multi-metric manager's latest
// per-scaler recommendations, nil when another algorithm is running.
func (s *Simulation) ManagerRecommendations() []ManagerRecommendation {
	return s.world.ManagerRecommendations()
}

// ResilienceConfig enables and tunes the cascading-failure defenses:
// per-edge circuit breakers, budgeted retries, deadline propagation and
// adaptive load shedding. The zero value disables all of them.
type ResilienceConfig = resilience.Config

// BreakerConfig parameterises the per-edge circuit breakers
// (ResilienceConfig.Breakers).
type BreakerConfig = resilience.BreakerConfig

// RetryConfig parameterises budgeted client retries (ResilienceConfig.Retry).
type RetryConfig = resilience.RetryConfig

// DeadlineConfig enables deadline propagation down the call chain
// (ResilienceConfig.Deadlines).
type DeadlineConfig = resilience.DeadlineConfig

// ShedConfig parameterises queue-occupancy load shedding
// (ResilienceConfig.Shedding).
type ShedConfig = resilience.ShedConfig

// BreakerState is one circuit breaker's position (closed, open, half-open).
type BreakerState = resilience.BreakerState

// BreakerStates returns every call-graph edge's current breaker state (empty
// unless breakers are enabled).
func (s *Simulation) BreakerStates() map[string]BreakerState {
	return s.world.Resilience().BreakerStates(s.world.Engine().Now())
}

// --- Observability ----------------------------------------------------------

// Series is one sample of a run's metric list: a family name, its type and
// help, the rendered labels and the value.
type Series = obs.Series

// Metrics returns every series the run reports, in one deterministic order —
// the list /metrics and hyscale-sim render. It carries every counter a
// run keeps: scaling actions (hyscale_scaling_actions_total{kind}), control
// retries, self-healing (hyscale_selfheal_*), connection failures by cause,
// zone ledgers and evacuation (on zoned worlds), call-graph outcomes and
// defenses (with a call graph) and the health signal (on worlds that can
// fail). Read one series with Lookup.
func (s *Simulation) Metrics() []Series { return s.world.Metrics() }

// Lookup returns the value of the series with this family name and exactly
// these rendered labels, and whether series holds one:
//
//	v, _ := hyscale.Lookup(sim.Metrics(), "hyscale_scaling_actions_total", `kind="vertical"`)
func Lookup(series []Series, name, labels string) (float64, bool) {
	return obs.Lookup(series, name, labels)
}

// RunJournal is the decision-trace journal recorded when SimConfig.Observe is
// set: every scaling decision with its observed inputs and outcome, plus
// per-service time series. All methods are nil-safe.
type RunJournal = obs.Journal

// ScalingDecision is one journaled scaler decision.
type ScalingDecision = obs.Decision

// ServiceSample is one per-service time-series point, sampled each monitor
// period.
type ServiceSample = obs.Sample

// RunEvent is one journaled self-healing event (detector transition,
// reconcile step or monitor restart).
type RunEvent = obs.Event

// Journal returns the run's decision-trace journal, or nil when
// SimConfig.Observe was off. The nil journal is safe to query.
func (s *Simulation) Journal() *RunJournal { return s.world.Journal() }

// Decisions returns every journaled scaling decision in simulated-time order
// (empty unless SimConfig.Observe was set). The journal stores compact
// records, so each call builds a fresh slice: the caller owns it, and a
// loop should call Decisions once, not per element.
func (s *Simulation) Decisions() []ScalingDecision { return s.world.Journal().Decisions() }

// Samples returns every journaled per-service time-series point in
// simulated-time order (empty unless SimConfig.Observe was set). Like
// Decisions, each call builds a fresh slice from the journal's records.
func (s *Simulation) Samples() []ServiceSample { return s.world.Journal().Samples() }

// Events returns every journaled self-healing event in simulated-time order
// (empty unless SimConfig.Observe and SimConfig.SelfHealing were set).
func (s *Simulation) Events() []RunEvent { return s.world.Journal().Events() }

// --- RunSpec layer ----------------------------------------------------------

// RunSpec is the serializable description of one complete run — the unit the
// executor fans out. See internal/runner for the field reference.
type RunSpec = runner.RunSpec

// RunResult is everything one RunSpec produces.
type RunResult = runner.Result

// ServiceRun couples a service spec with its target utilization and load.
type ServiceRun = runner.ServiceRun

// LoadSpec is the declarative form of a load pattern.
type LoadSpec = runner.LoadSpec

// LoadSpecFor reflects a concrete load pattern into its declarative spec.
func LoadSpecFor(p loadgen.Pattern) LoadSpec { return runner.FromPattern(p) }

// NewRunSpec compiles a SimConfig into a RunSpec with the given name and
// simulated duration. Services can then be appended declaratively:
//
//	spec := hyscale.NewRunSpec("api-wave", hyscale.DefaultSimConfig(1), 30*time.Minute)
//	spec.Services = append(spec.Services, hyscale.ServiceRun{
//		Spec:   hyscale.CPUBoundService("api", 0.12),
//		Target: 0.5,
//		Load:   hyscale.LoadSpecFor(hyscale.WaveLoad(12, 0.3, 8*time.Minute)),
//	})
//	results, err := hyscale.ExecuteSpecs(0, 1, []hyscale.RunSpec{spec})
func NewRunSpec(name string, cfg SimConfig, duration time.Duration) RunSpec {
	return RunSpec{Name: name, Seed: cfg.Seed, Platform: cfg.PlatformConfig,
		Algorithm: string(cfg.Algorithm), Manager: cfg.Manager, Duration: duration}
}

// ExecuteSpecs fans independent RunSpecs across a bounded worker pool
// (workers <= 0 uses GOMAXPROCS) and returns results in spec order, each
// with its wall-clock Elapsed. Output is bit-identical for any worker count:
// each run is an isolated world, and specs with Seed zero get a seed derived
// from (rootSeed, spec name) before any worker starts.
func ExecuteSpecs(workers int, rootSeed int64, specs []RunSpec) ([]RunResult, error) {
	return runner.Execute(workers, rootSeed, specs)
}

// --- Service spec helpers -------------------------------------------------

func baseSpec(name string, kind workload.Kind) workload.ServiceSpec {
	return workload.ServiceSpec{
		Name: name, Kind: kind,
		CPUOverheadPerRequest: 0.01,
		BaselineMemMB:         300,
		InitialReplicaCPU:     1,
		InitialReplicaMemMB:   768,
		MinReplicas:           1,
		MaxReplicas:           10,
		Timeout:               30 * time.Second,
	}
}

// CPUBoundService returns a CPU-bound microservice consuming cpuSeconds of
// CPU per request.
func CPUBoundService(name string, cpuSeconds float64) workload.ServiceSpec {
	s := baseSpec(name, workload.KindCPUBound)
	s.CPUPerRequest = cpuSeconds
	s.MemPerRequest = 2
	return s
}

// MemoryBoundService returns a memory-bound microservice holding memMB of
// transient memory per request.
func MemoryBoundService(name string, memMB float64) workload.ServiceSpec {
	s := baseSpec(name, workload.KindMemoryBound)
	s.CPUPerRequest = 0.02
	s.MemPerRequest = memMB
	return s
}

// NetworkBoundService returns a network-bound microservice transmitting
// megabits of response payload per request, shaped at capMbps per replica.
func NetworkBoundService(name string, megabits, capMbps float64) workload.ServiceSpec {
	s := baseSpec(name, workload.KindNetworkBound)
	s.CPUPerRequest = 0.03
	s.MemPerRequest = 4
	s.NetPerRequest = megabits
	s.InitialReplicaNetMbps = capMbps
	return s
}

// MixedService returns a mixed CPU+memory microservice.
func MixedService(name string, cpuSeconds, memMB float64) workload.ServiceSpec {
	s := baseSpec(name, workload.KindMixed)
	s.CPUPerRequest = cpuSeconds
	s.MemPerRequest = memMB
	s.InitialReplicaMemMB = 640
	return s
}

// --- Load pattern helpers ---------------------------------------------------

// ConstantLoad is a flat arrival rate in requests/second.
func ConstantLoad(rps float64) loadgen.Pattern { return loadgen.Constant{RPS: rps} }

// WaveLoad is the paper's low-burst stable pattern: a sinusoid around base
// with the given relative amplitude and period.
func WaveLoad(baseRPS, amplitude float64, period time.Duration) loadgen.Pattern {
	return loadgen.Wave{Base: baseRPS, Amplitude: amplitude, Period: period}
}

// BurstLoad is the paper's high-burst unstable pattern: rate jumps from base
// to peak for burstLen out of every period.
func BurstLoad(baseRPS, peakRPS float64, period, burstLen time.Duration) loadgen.Pattern {
	return loadgen.Burst{Base: baseRPS, Peak: peakRPS, Period: period, BurstLen: burstLen}
}

// NodeDefaults returns the paper's machine shape, for callers that want to
// inspect or derive cluster configs.
func NodeDefaults() cluster.NodeConfig { return cluster.DefaultNodeConfig("node") }
