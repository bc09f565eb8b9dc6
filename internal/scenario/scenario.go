// Package scenario provides a declarative JSON format for describing a
// complete autoscaling experiment — cluster shape, algorithm, microservices,
// load patterns and fault injections — so users can run custom scenarios
// with cmd/hyscale-sim without writing Go.
//
// A minimal scenario:
//
//	{
//	  "seed": 1,
//	  "nodes": 19,
//	  "algorithm": "hybridmem",
//	  "duration": "20m",
//	  "services": [
//	    {
//	      "name": "api", "kind": "cpu",
//	      "cpuPerRequest": 0.12, "targetUtil": 0.5,
//	      "load": {"type": "wave", "base": 15, "amplitude": 0.3, "period": "8m"}
//	    }
//	  ]
//	}
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"hyscale/internal/faults"
	"hyscale/internal/monitor"
	"hyscale/internal/platform"
	"hyscale/internal/resilience"
	"hyscale/internal/runner"
	"hyscale/internal/scalermgr"
	"hyscale/internal/workload"
)

// Duration wraps time.Duration with JSON support for "90s"/"20m" strings.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("scenario: duration must be a string like \"30s\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("scenario: bad duration %q: %w", s, err)
	}
	*d = Duration(v)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Load describes an arrival pattern.
type Load struct {
	// Type is one of constant|wave|burst|ramp|diurnal|flashcrowd, or none
	// for services that receive no external traffic (downstream tiers of a
	// call graph, driven purely by upstream calls).
	Type string `json:"type"`
	// Base is the base rate in requests/second (constant rate for
	// "constant", start rate for "ramp").
	Base float64 `json:"base"`
	// Peak is the burst/flash-crowd peak or ramp end rate.
	Peak float64 `json:"peak,omitempty"`
	// Amplitude is the relative swing for wave/diurnal.
	Amplitude float64 `json:"amplitude,omitempty"`
	// Period is the wave/burst cycle.
	Period Duration `json:"period,omitempty"`
	// BurstLen is the burst duration within each period.
	BurstLen Duration `json:"burstLen,omitempty"`
	// Phase shifts the pattern.
	Phase Duration `json:"phase,omitempty"`
	// RampUp is the ramp/flash-crowd rise time.
	RampUp Duration `json:"rampUp,omitempty"`
	// Start is the flash-crowd start time.
	Start Duration `json:"start,omitempty"`
	// Hold is the flash-crowd plateau.
	Hold Duration `json:"hold,omitempty"`
}

// Spec lowers the load description to its runner form: "none" is no
// generator, and a flash crowd decays as fast as it rose.
func (l Load) Spec() runner.LoadSpec {
	spec := runner.LoadSpec{
		Type: l.Type, Base: l.Base, Peak: l.Peak, Amplitude: l.Amplitude,
		Period: time.Duration(l.Period), BurstLen: time.Duration(l.BurstLen),
		Phase: time.Duration(l.Phase), RampUp: time.Duration(l.RampUp),
		Start: time.Duration(l.Start), Hold: time.Duration(l.Hold),
	}
	switch l.Type {
	case "none":
		spec.Type = ""
	case "flashcrowd":
		spec.Decay = spec.RampUp
	}
	return spec
}

// Service describes one microservice. Zero-valued resource fields fall back
// to kind-appropriate defaults.
type Service struct {
	Name string `json:"name"`
	// Kind is one of cpu|mem|net|mixed.
	Kind string `json:"kind"`

	CPUPerRequest float64 `json:"cpuPerRequest,omitempty"`
	MemPerRequest float64 `json:"memPerRequest,omitempty"`
	NetPerRequest float64 `json:"netPerRequest,omitempty"`
	BaselineMemMB float64 `json:"baselineMemMB,omitempty"`
	BackgroundCPU float64 `json:"backgroundCPU,omitempty"`

	InitialCPU     float64 `json:"initialCPU,omitempty"`
	InitialMemMB   float64 `json:"initialMemMB,omitempty"`
	InitialNetMbps float64 `json:"initialNetMbps,omitempty"`

	MinReplicas int      `json:"minReplicas,omitempty"`
	MaxReplicas int      `json:"maxReplicas,omitempty"`
	Timeout     Duration `json:"timeout,omitempty"`
	StateSyncMB float64  `json:"stateSyncMB,omitempty"`
	// QueueLimit bounds one replica's in-flight admissions (0 = unbounded);
	// the back-pressure knob for call-graph scenarios.
	QueueLimit int `json:"queueLimit,omitempty"`

	TargetUtil float64 `json:"targetUtil,omitempty"`
	Load       Load    `json:"load"`

	// Count expands this entry into count services named name-000…name-NNN,
	// with each clone's periodic load phase-staggered across one period so
	// the fleet does not scale in lock-step. Zero or one declares a single
	// service. Large-cluster scenarios use this to declare hundreds of
	// services in a few lines.
	Count int `json:"count,omitempty"`
}

// expandServices returns the service list with every Count > 1 entry
// replaced by its clones.
func expandServices(services []Service) []Service {
	out := make([]Service, 0, len(services))
	for _, s := range services {
		if s.Count <= 1 {
			out = append(out, s)
			continue
		}
		for i := 0; i < s.Count; i++ {
			c := s
			c.Name = fmt.Sprintf("%s-%03d", s.Name, i)
			c.Count = 0
			if p := time.Duration(s.Load.Period); p > 0 {
				c.Load.Phase = Duration(time.Duration(s.Load.Phase) + p*time.Duration(i)/time.Duration(s.Count))
			}
			out = append(out, c)
		}
	}
	return out
}

// Spec materialises the service description with defaults filled in. It
// rejects only an unknown kind; runner.RunSpec.Validate checks the rest.
func (s Service) Spec() (workload.ServiceSpec, error) {
	var kind workload.Kind
	switch s.Kind {
	case "cpu":
		kind = workload.KindCPUBound
	case "mem":
		kind = workload.KindMemoryBound
	case "net":
		kind = workload.KindNetworkBound
	case "mixed":
		kind = workload.KindMixed
	default:
		return workload.ServiceSpec{}, fmt.Errorf("scenario: service %q has unknown kind %q", s.Name, s.Kind)
	}
	spec := workload.ServiceSpec{
		Name: s.Name, Kind: kind,
		CPUPerRequest:         s.CPUPerRequest,
		CPUOverheadPerRequest: 0.01,
		MemPerRequest:         s.MemPerRequest,
		NetPerRequest:         s.NetPerRequest,
		BaselineMemMB:         s.BaselineMemMB,
		BackgroundCPU:         s.BackgroundCPU,
		InitialReplicaCPU:     s.InitialCPU,
		InitialReplicaMemMB:   s.InitialMemMB,
		InitialReplicaNetMbps: s.InitialNetMbps,
		MinReplicas:           s.MinReplicas,
		MaxReplicas:           s.MaxReplicas,
		Timeout:               time.Duration(s.Timeout),
		StateSyncMB:           s.StateSyncMB,
		QueueLimit:            s.QueueLimit,
	}
	// Kind-appropriate defaults for the common fields.
	if spec.CPUPerRequest == 0 {
		switch kind {
		case workload.KindNetworkBound:
			spec.CPUPerRequest = 0.025
		case workload.KindMemoryBound:
			spec.CPUPerRequest = 0.02
		default:
			spec.CPUPerRequest = 0.12
		}
	}
	if spec.MemPerRequest == 0 {
		switch kind {
		case workload.KindMemoryBound:
			spec.MemPerRequest = 40
		case workload.KindMixed:
			spec.MemPerRequest = 90
		default:
			spec.MemPerRequest = 4
		}
	}
	if kind == workload.KindNetworkBound && spec.NetPerRequest == 0 {
		spec.NetPerRequest = 6
	}
	if spec.BaselineMemMB == 0 {
		spec.BaselineMemMB = 300
	}
	if spec.InitialReplicaCPU == 0 {
		spec.InitialReplicaCPU = 1
	}
	if spec.InitialReplicaMemMB == 0 {
		if kind == workload.KindMixed {
			spec.InitialReplicaMemMB = 640
		} else {
			spec.InitialReplicaMemMB = 768
		}
	}
	if kind == workload.KindNetworkBound && spec.InitialReplicaNetMbps == 0 {
		spec.InitialReplicaNetMbps = 50
	}
	if spec.MinReplicas == 0 {
		spec.MinReplicas = 1
	}
	if spec.MaxReplicas == 0 {
		spec.MaxReplicas = 10
	}
	if spec.Timeout == 0 {
		spec.Timeout = 30 * time.Second
	}
	return spec, nil
}

// NodeFailure schedules a machine failure.
type NodeFailure struct {
	Node string   `json:"node"`
	At   Duration `json:"at"`
}

// FaultWindow forces one fault kind during an interval — see faults.Window.
type FaultWindow struct {
	// Kind is one of
	// vertical|start|stats|backend|monitor-crash|partition|slow-backend|
	// zone-outage|zone-partition.
	Kind string `json:"kind"`
	// Target narrows the window to one container/service/node; empty hits
	// every target (monitor-crash windows take no target). Zone kinds
	// require a decimal zone-index target and a zoned control plane
	// (zones.count >= 2).
	Target string   `json:"target,omitempty"`
	From   Duration `json:"from"`
	To     Duration `json:"to"`
	// Direction narrows a partition or zone-partition window to one side of
	// the monitor↔node link: "stats" (queries black-holed) or "actions"
	// (control actions black-holed); empty cuts both.
	Direction string `json:"direction,omitempty"`
	// Factor is the CPU-work multiplier of a slow-backend window (> 1).
	Factor float64 `json:"factor,omitempty"`
}

// Faults declares control-plane fault injection for a scenario.
type Faults struct {
	// Seed decorrelates the fault schedule from the scenario seed; zero
	// reuses the scenario seed.
	Seed int64 `json:"seed,omitempty"`

	VerticalFailProb float64 `json:"verticalFailProb,omitempty"`

	StartFailProb float64  `json:"startFailProb,omitempty"`
	StartSlowProb float64  `json:"startSlowProb,omitempty"`
	StartSlowBy   Duration `json:"startSlowBy,omitempty"`

	StatsDropProb float64 `json:"statsDropProb,omitempty"`

	BackendDownProb  float64  `json:"backendDownProb,omitempty"`
	BackendDownFor   Duration `json:"backendDownFor,omitempty"`
	BackendDownEvery Duration `json:"backendDownEvery,omitempty"`

	Windows []FaultWindow `json:"windows,omitempty"`

	// Hardening toggles the control plane's resilience mechanisms; omitted
	// means enabled.
	Hardening *bool `json:"hardening,omitempty"`
}

// Config materialises the fault declaration.
func (f *Faults) Config(scenarioSeed int64) faults.Config {
	if f == nil {
		return faults.Config{}
	}
	seed := f.Seed
	if seed == 0 {
		seed = scenarioSeed
	}
	cfg := faults.Config{
		Seed:             seed,
		VerticalFailProb: f.VerticalFailProb,
		StartFailProb:    f.StartFailProb,
		StartSlowProb:    f.StartSlowProb,
		StartSlowBy:      time.Duration(f.StartSlowBy),
		StatsDropProb:    f.StatsDropProb,
		BackendDownProb:  f.BackendDownProb,
		BackendDownFor:   time.Duration(f.BackendDownFor),
		BackendDownEvery: time.Duration(f.BackendDownEvery),
	}
	for _, w := range f.Windows {
		cfg.Windows = append(cfg.Windows, faults.Window{
			Kind:      faults.Kind(w.Kind),
			Target:    w.Target,
			From:      time.Duration(w.From),
			To:        time.Duration(w.To),
			Direction: w.Direction,
			Factor:    w.Factor,
		})
	}
	return cfg
}

// Resilience declares the cascading-failure defenses for a scenario. Each
// block is off when omitted, so a bare `"resilience": {}` enables nothing.
type Resilience struct {
	Breakers  *BreakerDecl  `json:"breakers,omitempty"`
	Retry     *RetryDecl    `json:"retry,omitempty"`
	Deadlines *DeadlineDecl `json:"deadlines,omitempty"`
	Shedding  *ShedDecl     `json:"shedding,omitempty"`
}

// BreakerDecl declares the per-edge circuit breakers.
type BreakerDecl struct {
	// FailuresToOpen is the consecutive-failure trip count (default 5).
	FailuresToOpen int `json:"failuresToOpen,omitempty"`
	// OpenFor is the open-state cooldown before half-open (default 5s).
	OpenFor Duration `json:"openFor,omitempty"`
	// HalfOpenProbes is the probe count a half-open breaker admits
	// (default 1).
	HalfOpenProbes int `json:"halfOpenProbes,omitempty"`
}

// RetryDecl declares the client retry policy and its budget.
type RetryDecl struct {
	// MaxAttempts bounds attempts per call slot including the first
	// (default 3).
	MaxAttempts int `json:"maxAttempts,omitempty"`
	// Backoff is the delay before each retry (default 100ms).
	Backoff Duration `json:"backoff,omitempty"`
	// Budget caps retries at Budget × first-attempt calls per calling
	// service (0 = unlimited — the retry-storm configuration).
	Budget float64 `json:"budget,omitempty"`
}

// DeadlineDecl enables deadline propagation down the call chain.
type DeadlineDecl struct {
	// Margin is subtracted per hop from the inherited deadline.
	Margin Duration `json:"margin,omitempty"`
}

// ShedDecl declares utilization-triggered adaptive load shedding.
type ShedDecl struct {
	// UtilThreshold is the replica admission-queue occupancy (in-flight over
	// queueLimit) above which shedding ramps (default 0.9).
	UtilThreshold float64 `json:"utilThreshold,omitempty"`
	// MaxShed caps the shed probability (default 0.95).
	MaxShed float64 `json:"maxShed,omitempty"`
}

// Config materialises the resilience declaration.
func (r *Resilience) Config() resilience.Config {
	if r == nil {
		return resilience.Config{}
	}
	var cfg resilience.Config
	if b := r.Breakers; b != nil {
		cfg.Breakers = &resilience.BreakerConfig{
			FailuresToOpen: b.FailuresToOpen,
			OpenFor:        time.Duration(b.OpenFor),
			HalfOpenProbes: b.HalfOpenProbes,
		}
	}
	if t := r.Retry; t != nil {
		cfg.Retry = &resilience.RetryConfig{
			MaxAttempts: t.MaxAttempts,
			Backoff:     time.Duration(t.Backoff),
			Budget:      t.Budget,
		}
	}
	if d := r.Deadlines; d != nil {
		cfg.Deadlines = &resilience.DeadlineConfig{Margin: time.Duration(d.Margin)}
	}
	if s := r.Shedding; s != nil {
		cfg.Shedding = &resilience.ShedConfig{
			UtilThreshold: s.UtilThreshold,
			MaxShed:       s.MaxShed,
		}
	}
	return cfg
}

// SelfHealing declares the Monitor's failure detector, reconciler and
// checkpoint/restore for a scenario.
type SelfHealing struct {
	// Enabled turns on the heartbeat failure detector and reconciler.
	Enabled bool `json:"enabled"`
	// SuspectAfter / DeadAfter are the consecutive-missed-poll thresholds
	// (defaults 2 and 4).
	SuspectAfter int `json:"suspectAfter,omitempty"`
	DeadAfter    int `json:"deadAfter,omitempty"`
	// Cooldown delays each lost replica's re-placement (default 10s).
	Cooldown Duration `json:"cooldown,omitempty"`
	// Checkpoint enables monitor decision-state snapshots, restored after
	// monitor-crash fault windows; CheckpointEvery spaces them (zero
	// snapshots every poll).
	Checkpoint      bool     `json:"checkpoint,omitempty"`
	CheckpointEvery Duration `json:"checkpointEvery,omitempty"`
}

// Config materialises the self-healing declaration.
func (s *SelfHealing) Config() monitor.SelfHealing {
	if s == nil {
		return monitor.SelfHealing{}
	}
	return monitor.SelfHealing{
		Enabled:         s.Enabled,
		SuspectAfter:    s.SuspectAfter,
		DeadAfter:       s.DeadAfter,
		Cooldown:        time.Duration(s.Cooldown),
		Checkpoint:      s.Checkpoint,
		CheckpointEvery: time.Duration(s.CheckpointEvery),
	}
}

// ManagerScaler declares one scaler inside the manager block.
type ManagerScaler struct {
	// Metric is one of cpu|memory|net|queue.
	Metric string `json:"metric"`
	// Weight is the scaler's vote under the "weighted" merge policy.
	Weight float64 `json:"weight,omitempty"`
	// Target overrides the scaler's utilization target (resource scalers:
	// fraction of request; queue: per-replica depth).
	Target float64 `json:"target,omitempty"`
	// StableWindow / BurstWindow override the manager-wide window widths.
	StableWindow Duration `json:"stableWindow,omitempty"`
	BurstWindow  Duration `json:"burstWindow,omitempty"`
}

// ManagerService declares one service's SLO/cost targets for the manager.
type ManagerService struct {
	Service string `json:"service"`
	// SLOMs is a response-time objective in milliseconds: under
	// "manager-cost" the service keeps burst headroom on scale-down.
	SLOMs float64 `json:"sloMs,omitempty"`
	// TargetUtil / QueueTarget override the per-service scaler targets.
	TargetUtil  float64 `json:"targetUtil,omitempty"`
	QueueTarget float64 `json:"queueTarget,omitempty"`
}

// Manager tunes the "manager" / "manager-cost" algorithm family: sliding
// window widths, per-scaler weights and targets, the merge policy, and the
// cost allocator's freshness/retention knobs. Omitted means scalermgr
// defaults; the block is ignored by every other algorithm.
type Manager struct {
	StableWindow Duration         `json:"stableWindow,omitempty"`
	BurstWindow  Duration         `json:"burstWindow,omitempty"`
	MergePolicy  string           `json:"mergePolicy,omitempty"`
	Scalers      []ManagerScaler  `json:"scalers,omitempty"`
	QueueTarget  float64          `json:"queueTarget,omitempty"`
	FreshWithin  Duration         `json:"freshWithin,omitempty"`
	Retention    Duration         `json:"retention,omitempty"`
	SLOTargetMs  float64          `json:"sloTargetMs,omitempty"`
	Services     []ManagerService `json:"services,omitempty"`
}

// Config materialises the manager declaration (nil-safe: nil yields nil,
// leaving the runner on scalermgr defaults).
func (m *Manager) Config() *scalermgr.Config {
	if m == nil {
		return nil
	}
	cfg := scalermgr.Config{
		StableWindow: time.Duration(m.StableWindow),
		BurstWindow:  time.Duration(m.BurstWindow),
		MergePolicy:  m.MergePolicy,
		QueueTarget:  m.QueueTarget,
		FreshWithin:  time.Duration(m.FreshWithin),
		Retention:    time.Duration(m.Retention),
		SLOTargetMs:  m.SLOTargetMs,
	}
	for _, s := range m.Scalers {
		cfg.Scalers = append(cfg.Scalers, scalermgr.ScalerConfig{
			Metric:       s.Metric,
			Weight:       s.Weight,
			Target:       s.Target,
			StableWindow: time.Duration(s.StableWindow),
			BurstWindow:  time.Duration(s.BurstWindow),
		})
	}
	for _, s := range m.Services {
		cfg.Services = append(cfg.Services, scalermgr.ServiceTargets{
			Service:     s.Service,
			SLOMs:       s.SLOMs,
			TargetUtil:  s.TargetUtil,
			QueueTarget: s.QueueTarget,
		})
	}
	return &cfg
}

// Zones declares a sharded control plane: the node pool is partitioned into
// Count zones, each governed by its own arbiter, under a thin global
// allocator that assigns services to zones and leases idle machines across
// zone boundaries when a zone runs out of capacity. Omitted (or count 1)
// keeps the classic single-monitor control plane.
type Zones struct {
	// Count is the number of zones (0 or 1 keeps the single monitor; more
	// than the node count is rejected).
	Count int `json:"count"`
	// LeaseHeadroomCPU is the per-node free-CPU threshold below which a zone
	// is considered starved and proactively leases an idle machine
	// (default 1 CPU).
	LeaseHeadroomCPU float64 `json:"leaseHeadroomCPU,omitempty"`
}

// DR declares the zone disaster-recovery path: evacuation of services out of
// a zone whose nodes are all ruled dead, optional cross-zone spillover when
// no single surviving zone fits a service, and migration home when the zone
// heals. Requires a zoned control plane (zones.count >= 2) and selfHealing —
// the per-zone failure detectors are what rules a zone down.
type DR struct {
	// Evacuate enables the path; false (or an omitted dr block) leaves a
	// dead zone's services down until it heals.
	Evacuate bool `json:"evacuate"`
	// SpilloverZones bounds how many zones one evacuated service may span
	// (home plus spill shards); <= 1 disables spillover.
	SpilloverZones int `json:"spilloverZones,omitempty"`
	// ReadoptAfter is how long a healed zone must stay fully healthy before
	// its services migrate home (default 30s).
	ReadoptAfter Duration `json:"readoptAfter,omitempty"`
}

// Scenario is a complete experiment description.
type Scenario struct {
	Seed      int64   `json:"seed"`
	Nodes     int     `json:"nodes"`
	NodeCPU   float64 `json:"nodeCPU,omitempty"`
	NodeMemMB float64 `json:"nodeMemMB,omitempty"`
	// Algorithm is one of
	// kubernetes|network|hybrid|hybridmem|manager|manager-cost|none, with
	// optional ablation suffixes for the hybrids and the "-predictive"
	// wrapper for any of them.
	Algorithm string `json:"algorithm"`
	// MonitorPeriod overrides the 5s default.
	MonitorPeriod Duration `json:"monitorPeriod,omitempty"`
	// Duration is the simulated horizon.
	Duration Duration `json:"duration"`

	// Zones shards the control plane into per-zone arbiters (nil or count 1
	// keeps the single central monitor).
	Zones *Zones `json:"zones,omitempty"`
	// DR declares zone evacuation / re-adoption (nil disables; requires
	// zones.count >= 2 and selfHealing).
	DR *DR `json:"dr,omitempty"`

	Services []Service     `json:"services"`
	Failures []NodeFailure `json:"failures,omitempty"`
	// Faults declares control-plane fault injection (nil injects nothing).
	Faults *Faults `json:"faults,omitempty"`
	// SelfHealing declares the Monitor's failure detector, reconciler and
	// checkpoint/restore (nil disables all three).
	SelfHealing *SelfHealing `json:"selfHealing,omitempty"`
	// CallGraph declares inter-service call edges; every edge endpoint must
	// name a declared service and the graph must be acyclic. Nil keeps all
	// services independent.
	CallGraph *workload.CallGraph `json:"callGraph,omitempty"`
	// Resilience declares the cascading-failure defenses (nil disables all).
	Resilience *Resilience `json:"resilience,omitempty"`
	// Manager tunes the "manager"/"manager-cost" algorithms (nil keeps
	// scalermgr defaults; ignored by every other algorithm).
	Manager *Manager `json:"manager,omitempty"`
}

// Parse reads a scenario from JSON, rejecting unknown fields so typos
// surface instead of silently doing nothing. Decode errors carry the
// offending key path ("services[2].qeueLimit") rather than the std json
// package's bare message.
func Parse(r io.Reader) (*Scenario, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, describeError(data, err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// Validate checks the rules that exist only in the JSON form — a positive
// duration, at least one service, non-negative counts — then compiles the
// scenario and validates the result with runner.RunSpec.Validate, which holds
// every other rule.
func (sc *Scenario) Validate() error {
	if sc.Duration <= 0 {
		return fmt.Errorf("scenario: duration must be positive")
	}
	if len(sc.Services) == 0 {
		return fmt.Errorf("scenario: at least one service required")
	}
	for _, s := range sc.Services {
		if s.Count < 0 {
			return fmt.Errorf("scenario: service %q: count must be >= 0", s.Name)
		}
	}
	spec, err := sc.Compile()
	if err != nil {
		return err
	}
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("%s: %w", spec.Name, err)
	}
	return nil
}

// Compile lowers the scenario onto the repository's common execution layer:
// one self-contained runner.RunSpec that the CLI, Run and runner.Build share.
// It does not validate; Validate (run by Parse) and runner.Build do.
func (sc *Scenario) Compile() (runner.RunSpec, error) {
	cfg := platform.DefaultConfig(sc.Seed)
	if sc.Nodes > 0 {
		cfg.Nodes = sc.Nodes
	}
	if sc.NodeCPU > 0 {
		cfg.NodeTemplate.Capacity.CPU = sc.NodeCPU
	}
	if sc.NodeMemMB > 0 {
		cfg.NodeTemplate.Capacity.MemMB = sc.NodeMemMB
	}
	if sc.MonitorPeriod > 0 {
		cfg.MonitorPeriod = time.Duration(sc.MonitorPeriod)
	}
	if sc.Zones != nil {
		cfg.Zones = sc.Zones.Count
		cfg.LeaseHeadroomCPU = sc.Zones.LeaseHeadroomCPU
	}
	if sc.DR != nil {
		cfg.Evacuate = sc.DR.Evacuate
		cfg.SpilloverZones = sc.DR.SpilloverZones
		cfg.ReadoptAfter = time.Duration(sc.DR.ReadoptAfter)
	}
	cfg.Faults = sc.Faults.Config(sc.Seed)
	if sc.Faults != nil && sc.Faults.Hardening != nil {
		cfg.HardeningOff = !*sc.Faults.Hardening
	}
	cfg.SelfHealing = sc.SelfHealing.Config()
	if sc.CallGraph != nil {
		cfg.CallGraph = *sc.CallGraph
	}
	cfg.Resilience = sc.Resilience.Config()

	spec := runner.RunSpec{
		Name:      "scenario",
		Seed:      sc.Seed,
		Platform:  cfg,
		Algorithm: sc.Algorithm,
		Manager:   sc.Manager.Config(),
		Duration:  time.Duration(sc.Duration),
	}
	for _, s := range sc.ExpandedServices() {
		svc, err := s.Spec()
		if err != nil {
			return runner.RunSpec{}, err
		}
		target := s.TargetUtil
		if target == 0 {
			target = 0.5
		}
		spec.Services = append(spec.Services, runner.ServiceRun{
			Spec: svc, Target: target, Load: s.Load.Spec(),
		})
	}
	for _, f := range sc.Failures {
		spec.NodeFailures = append(spec.NodeFailures, runner.NodeFailure{
			At: time.Duration(f.At), Node: f.Node,
		})
	}
	return spec, nil
}

// ExpandedServices returns the declared services with every count-expanded
// entry replaced by its clones — the list Compile actually deploys.
func (sc *Scenario) ExpandedServices() []Service {
	return expandServices(sc.Services)
}

// Run builds and runs the scenario, returning the world for inspection.
func (sc *Scenario) Run() (*platform.World, error) {
	spec, err := sc.Compile()
	if err != nil {
		return nil, err
	}
	res, err := runner.Run(spec) // errors carry the spec name, "scenario"
	if err != nil {
		return nil, err
	}
	return res.World, nil
}
