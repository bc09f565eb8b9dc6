// Package runner is the single execution layer behind every experiment,
// scenario and CLI run in this repository. A RunSpec is a self-contained,
// serializable description of one simulation run — platform configuration,
// algorithm, services with declarative load shapes, pinned replicas, stress
// contenders, fixed-count injections and machine churn schedules. The
// experiment harness, the scenario layer and the public facade all COMPILE
// to RunSpecs; Execute fans independent specs out across a bounded worker
// pool and returns results in spec order with bit-identical output for any
// worker count, because each run builds its own isolated World whose RNG
// derives from (root seed, spec name) rather than sharing state.
package runner

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/core"
	"hyscale/internal/loadgen"
	"hyscale/internal/platform"
	"hyscale/internal/resources"
	"hyscale/internal/scalermgr"
	"hyscale/internal/workload"
)

// LoadSpec is the declarative form of a loadgen.Pattern, covering every
// concrete pattern the repository ships. The Custom field is the escape
// hatch for programmatic patterns (e.g. trace-driven closures); it is the
// one part of a RunSpec that does not serialize.
type LoadSpec struct {
	// Type selects the pattern:
	// constant|wave|burst|ramp|diurnal|flashcrowd|scaled|custom, or empty
	// for no generator (fixed-count injection runs).
	Type string `json:"type,omitempty"`

	Base      float64       `json:"base,omitempty"`
	Peak      float64       `json:"peak,omitempty"`
	Amplitude float64       `json:"amplitude,omitempty"`
	Period    time.Duration `json:"period,omitempty"`
	BurstLen  time.Duration `json:"burstLen,omitempty"`
	Phase     time.Duration `json:"phase,omitempty"`
	RampUp    time.Duration `json:"rampUp,omitempty"`
	Start     time.Duration `json:"start,omitempty"`
	Hold      time.Duration `json:"hold,omitempty"`
	Decay     time.Duration `json:"decay,omitempty"`

	// RippleAmplitude and Ripple add the diurnal short cycle.
	RippleAmplitude float64       `json:"rippleAmplitude,omitempty"`
	Ripple          time.Duration `json:"ripple,omitempty"`

	// Factor and Inner describe a "scaled" wrapper around another spec.
	Factor float64   `json:"factor,omitempty"`
	Inner  *LoadSpec `json:"inner,omitempty"`

	// Custom carries an arbitrary pattern for Type "custom".
	Custom loadgen.Pattern `json:"-"`
}

// FromPattern reflects a concrete loadgen pattern back into its declarative
// spec, falling back to the non-serializable custom escape hatch for
// arbitrary implementations (loadgen.Func, loadgen.Sum, trace closures).
func FromPattern(p loadgen.Pattern) LoadSpec {
	switch v := p.(type) {
	case nil:
		return LoadSpec{}
	case loadgen.Constant:
		return LoadSpec{Type: "constant", Base: v.RPS}
	case loadgen.Wave:
		return LoadSpec{Type: "wave", Base: v.Base, Amplitude: v.Amplitude,
			Period: v.Period, Phase: v.PhaseShift}
	case loadgen.Burst:
		return LoadSpec{Type: "burst", Base: v.Base, Peak: v.Peak,
			Period: v.Period, BurstLen: v.BurstLen, Phase: v.PhaseShift}
	case loadgen.Ramp:
		return LoadSpec{Type: "ramp", Base: v.Start, Peak: v.End, RampUp: v.Duration}
	case loadgen.Diurnal:
		return LoadSpec{Type: "diurnal", Base: v.Base, Amplitude: v.DayAmplitude,
			Period: v.Day, RippleAmplitude: v.RippleAmplitude, Ripple: v.Ripple}
	case loadgen.FlashCrowd:
		return LoadSpec{Type: "flashcrowd", Base: v.Base, Peak: v.Peak,
			Start: v.Start, RampUp: v.RampUp, Hold: v.Hold, Decay: v.Decay}
	case loadgen.Scaled:
		inner := FromPattern(v.Pattern)
		return LoadSpec{Type: "scaled", Factor: v.Factor, Inner: &inner}
	default:
		return LoadSpec{Type: "custom", Custom: p}
	}
}

// Pattern materialises the spec; an empty Type yields a nil pattern (no
// generator, for injection-driven runs). It rejects a negative or
// non-finite base, peak or factor, a non-finite amplitude and a negative
// duration; phase and start shift the pattern and may be negative.
func (l LoadSpec) Pattern() (loadgen.Pattern, error) {
	for _, f := range []struct {
		name     string
		v        float64
		negative bool // whether a negative value is allowed
	}{
		{"base", l.Base, false}, {"peak", l.Peak, false}, {"factor", l.Factor, false},
		{"amplitude", l.Amplitude, true}, {"rippleAmplitude", l.RippleAmplitude, true},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("runner: load %s must be finite, got %v", f.name, f.v)
		}
		if f.v < 0 && !f.negative {
			return nil, fmt.Errorf("runner: load %s must be >= 0, got %v", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		d    time.Duration
	}{
		{"period", l.Period}, {"burstLen", l.BurstLen}, {"rampUp", l.RampUp},
		{"hold", l.Hold}, {"decay", l.Decay}, {"ripple", l.Ripple},
	} {
		if f.d < 0 {
			return nil, fmt.Errorf("runner: load %s must be >= 0, got %v", f.name, f.d)
		}
	}
	switch l.Type {
	case "":
		return nil, nil
	case "constant":
		return loadgen.Constant{RPS: l.Base}, nil
	case "wave":
		return loadgen.Wave{Base: l.Base, Amplitude: l.Amplitude,
			Period: l.Period, PhaseShift: l.Phase}, nil
	case "burst":
		return loadgen.Burst{Base: l.Base, Peak: l.Peak,
			Period: l.Period, BurstLen: l.BurstLen, PhaseShift: l.Phase}, nil
	case "ramp":
		return loadgen.Ramp{Start: l.Base, End: l.Peak, Duration: l.RampUp}, nil
	case "diurnal":
		return loadgen.Diurnal{Base: l.Base, DayAmplitude: l.Amplitude, Day: l.Period,
			RippleAmplitude: l.RippleAmplitude, Ripple: l.Ripple}, nil
	case "flashcrowd":
		return loadgen.FlashCrowd{Base: l.Base, Peak: l.Peak, Start: l.Start,
			RampUp: l.RampUp, Hold: l.Hold, Decay: l.Decay}, nil
	case "scaled":
		if l.Inner == nil {
			return nil, fmt.Errorf("runner: scaled load without inner pattern")
		}
		inner, err := l.Inner.Pattern()
		if err != nil {
			return nil, err
		}
		return loadgen.Scaled{Pattern: inner, Factor: l.Factor}, nil
	case "custom":
		if l.Custom == nil {
			return nil, fmt.Errorf("runner: custom load without a pattern value")
		}
		return l.Custom, nil
	default:
		return nil, fmt.Errorf("runner: unknown load type %q", l.Type)
	}
}

// ServiceRun couples one microservice with its utilization target and load.
type ServiceRun struct {
	Spec   workload.ServiceSpec `json:"spec"`
	Target float64              `json:"target,omitempty"`
	Load   LoadSpec             `json:"load,omitempty"`
}

// PinnedReplica deploys one replica on an explicit node with an explicit
// allocation, bypassing the autoscaler — the §III microbenchmark layout.
type PinnedReplica struct {
	Service string           `json:"service"`
	Node    string           `json:"node"`
	Alloc   resources.Vector `json:"alloc"`
}

// StressSpec places a stress contender (progrium-stress / network hog) on a
// node.
type StressSpec struct {
	Node      string           `json:"node"`
	Alloc     resources.Vector `json:"alloc"`
	CPUDemand float64          `json:"cpuDemand,omitempty"`
	NetFlows  int              `json:"netFlows,omitempty"`
}

// InjectSpec schedules Count requests arriving uniformly over Window
// starting at At — the fixed-count client of the §III microbenchmarks.
type InjectSpec struct {
	At      time.Duration `json:"at"`
	Window  time.Duration `json:"window"`
	Service string        `json:"service"`
	Count   int           `json:"count"`
}

// NodeFailure schedules a machine death.
type NodeFailure struct {
	At   time.Duration `json:"at"`
	Node string        `json:"node"`
}

// NodeRecovery schedules a fresh machine joining the cluster. One that joins
// at time zero is part of the starting cluster: Build adds it before any
// service deploys.
type NodeRecovery struct {
	At     time.Duration      `json:"at"`
	Config cluster.NodeConfig `json:"config"`
}

// RunSpec is a complete, self-contained description of one simulation run.
// Everything every harness in the repository used to wire by hand lives
// here; Build materialises it and Execute runs batches of them.
type RunSpec struct {
	// Name identifies the run (used for timing, errors and seed derivation);
	// it should be unique within a batch.
	Name string `json:"name"`
	// Label is the report row label; defaults to Name.
	Label string `json:"label,omitempty"`
	// Seed drives all of the run's randomness. Zero means "derive from
	// Execute's root seed and Name", which decorrelates runs in a batch
	// without any shared RNG state.
	Seed int64 `json:"seed,omitempty"`
	// Platform configures the world; a zero Nodes and Tick means
	// platform.DefaultConfig, and then no field other than Seed and Observe
	// may be set. A non-zero Seed overrides Platform.Seed.
	Platform platform.Config `json:"platform"`
	// Algorithm names the autoscaler, with ablation suffixes and the
	// "-predictive" wrapper ("hybridmem-noreclaim", "kubernetes-predictive",
	// ...). Empty or "none" runs without autoscaling.
	Algorithm string `json:"algorithm,omitempty"`
	// AlgoConfig overrides core.DefaultConfig() for the algorithm.
	AlgoConfig *core.Config `json:"algoConfig,omitempty"`
	// Manager tunes the "manager" algorithm family (per-scaler windows,
	// weights, merge policy, SLO/cost targets). Nil means scalermgr
	// defaults; ignored by every other algorithm, so specs without a
	// manager block are byte-for-byte unaffected.
	Manager *scalermgr.Config `json:"manager,omitempty"`

	// Duration is the simulated horizon.
	Duration time.Duration `json:"duration"`
	// DrainExtra, when positive, keeps ticking up to DrainExtra past
	// Duration until no requests remain in flight (RunUntilDrained).
	DrainExtra time.Duration `json:"drainExtra,omitempty"`

	Services []ServiceRun    `json:"services,omitempty"`
	Pinned   []PinnedReplica `json:"pinned,omitempty"`
	Stress   []StressSpec    `json:"stress,omitempty"`
	Inject   []InjectSpec    `json:"inject,omitempty"`

	NodeFailures   []NodeFailure  `json:"nodeFailures,omitempty"`
	NodeRecoveries []NodeRecovery `json:"nodeRecoveries,omitempty"`

	// Observe enables the decision-trace journal for this run (see
	// internal/obs). Each run owns an isolated journal, so parallel executor
	// batches stay deterministic. Equivalent to setting Platform.Observe.
	Observe bool `json:"observe,omitempty"`
}

// RowLabel returns the report label: Label, or Name when unset.
func (s RunSpec) RowLabel() string {
	if s.Label != "" {
		return s.Label
	}
	return s.Name
}

// platformConfig returns the platform configuration the spec builds: Platform,
// or platform.DefaultConfig with Platform's Seed and Observe when Platform
// leaves both Nodes and Tick zero, with Seed and Observe applied. A
// defaulted Platform that sets any other field is an error: the defaults
// would silently drop it.
func (s RunSpec) platformConfig() (platform.Config, error) {
	cfg := s.Platform
	if cfg.Nodes == 0 && cfg.Tick == 0 {
		rest := cfg
		rest.Seed, rest.Observe = 0, false
		if !reflect.ValueOf(rest).IsZero() {
			return cfg, fmt.Errorf("runner: a platform with zero nodes and tick takes the defaults, so it may set only seed and observe")
		}
		cfg = platform.DefaultConfig(s.Platform.Seed)
		cfg.Observe = s.Platform.Observe
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.Observe {
		cfg.Observe = true
	}
	return cfg, nil
}

// Validate checks everything Build would reject before it builds anything:
// the effective platform configuration (platform.Config.Validate), the
// algorithm name, the manager configuration, the machine churn schedule (see
// checkChurn), and the services — non-empty unique names, valid specs and
// load shapes. When the spec declares
// services, call-graph endpoints and manager targets must name one of them.
// Duration is not checked: a spec built for stepping by hand may leave it
// zero, and Run rejects a non-positive one. Errors carry no spec-name
// prefix; Build adds it.
func (s RunSpec) Validate() error {
	_, _, err := s.resolve()
	return err
}

// resolve validates the spec and returns its effective platform
// configuration and algorithm instance (nil for no autoscaling).
func (s RunSpec) resolve() (platform.Config, core.Algorithm, error) {
	cfg, err := s.platformConfig()
	if err != nil {
		return cfg, nil, err
	}
	if err := cfg.Validate(); err != nil {
		return cfg, nil, err
	}
	if s.Manager != nil {
		if err := s.Manager.Validate(); err != nil {
			return cfg, nil, err
		}
	}
	algoCfg := core.DefaultConfig()
	if s.AlgoConfig != nil {
		algoCfg = *s.AlgoConfig
	}
	algo, err := NewAlgorithmManaged(s.Algorithm, algoCfg, s.Manager)
	if err != nil {
		return cfg, nil, err
	}
	if err := s.checkChurn(cfg.Nodes); err != nil {
		return cfg, nil, err
	}
	if len(s.Services) == 0 {
		return cfg, algo, nil
	}
	declared := make(map[string]bool, len(s.Services))
	for _, svc := range s.Services {
		name := svc.Spec.Name
		if name == "" {
			return cfg, nil, fmt.Errorf("runner: service with empty name")
		}
		if declared[name] {
			return cfg, nil, fmt.Errorf("runner: duplicate service %q", name)
		}
		declared[name] = true
		if err := svc.Spec.Validate(); err != nil {
			return cfg, nil, fmt.Errorf("runner: service %q: %w", name, err)
		}
		if _, err := svc.Load.Pattern(); err != nil {
			return cfg, nil, fmt.Errorf("runner: service %q: %w", name, err)
		}
	}
	if err := cfg.CallGraph.Validate(declared); err != nil {
		return cfg, nil, err
	}
	if s.Manager != nil {
		for _, t := range s.Manager.Services {
			if !declared[t.Service] {
				return cfg, nil, fmt.Errorf("runner: manager targets unknown service %q", t.Service)
			}
		}
	}
	return cfg, algo, nil
}

// checkChurn validates the machine churn schedule against the platform's
// nodes node-0 .. node-(nodes-1): every instant is >= 0, every recovery
// brings a machine cluster.NewNode accepts, with a non-empty ID that no
// platform node or other recovery has, and every failure names a platform
// node or a recovery.
func (s RunSpec) checkChurn(nodes int) error {
	joins := make(map[string]bool, len(s.NodeRecoveries))
	for _, r := range s.NodeRecoveries {
		switch id := r.Config.ID; {
		case id == "":
			return fmt.Errorf("runner: node recovery with empty ID")
		case r.At < 0:
			return fmt.Errorf("runner: node recovery %q at %v, want >= 0", id, r.At)
		case joins[id] || platformNode(id, nodes):
			return fmt.Errorf("runner: node recovery %q names a machine that already exists", id)
		}
		if err := r.Config.Validate(); err != nil {
			return fmt.Errorf("runner: node recovery %q: %w", r.Config.ID, err)
		}
		joins[r.Config.ID] = true
	}
	for _, f := range s.NodeFailures {
		switch {
		case f.At < 0:
			return fmt.Errorf("runner: node failure %q at %v, want >= 0", f.Node, f.At)
		case !joins[f.Node] && !platformNode(f.Node, nodes):
			return fmt.Errorf("runner: node failure names unknown node %q", f.Node)
		}
	}
	return nil
}

// platformNode reports whether id is one of the platform's nodes, which
// platform.New names node-0 .. node-(nodes-1).
func platformNode(id string, nodes int) bool {
	i, err := strconv.Atoi(strings.TrimPrefix(id, "node-"))
	return err == nil && i >= 0 && i < nodes && id == fmt.Sprintf("node-%d", i)
}
