package runner

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/core"
	"hyscale/internal/loadgen"
	"hyscale/internal/platform"
	"hyscale/internal/workload"
)

// smokeSpec is a tiny but real run: one CPU-bound service under constant
// load for a few simulated seconds.
func smokeSpec(name string, seed int64) RunSpec {
	svc := workload.ServiceSpec{
		Name: "svc", Kind: workload.KindCPUBound,
		CPUPerRequest: 0.05, CPUOverheadPerRequest: 0.01,
		MemPerRequest: 2, BaselineMemMB: 100,
		InitialReplicaCPU: 1, InitialReplicaMemMB: 512,
		MinReplicas: 1, MaxReplicas: 4, Timeout: 10 * time.Second,
	}
	cfg := platform.DefaultConfig(seed)
	cfg.Nodes = 3
	return RunSpec{
		Name:     name,
		Seed:     seed,
		Platform: cfg,
		Duration: 10 * time.Second,
		Services: []ServiceRun{{Spec: svc, Target: 0.5, Load: LoadSpec{Type: "constant", Base: 5}}},
	}
}

func TestDeriveSeed(t *testing.T) {
	a := DeriveSeed(1, "run-a")
	if a != DeriveSeed(1, "run-a") {
		t.Error("DeriveSeed is not deterministic")
	}
	if a == DeriveSeed(1, "run-b") {
		t.Error("distinct names should derive distinct seeds")
	}
	if a == DeriveSeed(2, "run-a") {
		t.Error("distinct roots should derive distinct seeds")
	}
	if DeriveSeed(0, "") == 0 {
		t.Error("derived seed must never be zero")
	}
}

func TestExecuteOrderAndDeterminism(t *testing.T) {
	var specs []RunSpec
	for i := 0; i < 6; i++ {
		specs = append(specs, smokeSpec(fmt.Sprintf("run-%d", i), int64(i+1)))
	}
	serial, err := Execute(1, 1, specs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Execute(4, 1, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(specs) || len(parallel) != len(specs) {
		t.Fatalf("want %d results, got %d serial / %d parallel", len(specs), len(serial), len(parallel))
	}
	for i := range specs {
		if serial[i].Spec.Name != specs[i].Name {
			t.Errorf("result %d out of order: got %s", i, serial[i].Spec.Name)
		}
		if serial[i].Summary != parallel[i].Summary {
			t.Errorf("run %s: summary differs between 1 and 4 workers:\n  %+v\n  %+v",
				specs[i].Name, serial[i].Summary, parallel[i].Summary)
		}
		if len(serial[i].Metrics) == 0 {
			t.Errorf("run %s: empty metric list", specs[i].Name)
		}
		if !slices.Equal(serial[i].Metrics, parallel[i].Metrics) {
			t.Errorf("run %s: metric lists differ between 1 and 4 workers:\n  %+v\n  %+v",
				specs[i].Name, serial[i].Metrics, parallel[i].Metrics)
		}
		if serial[i].Summary.Completed == 0 {
			t.Errorf("run %s completed no requests", specs[i].Name)
		}
	}
}

func TestExecuteDerivesSeeds(t *testing.T) {
	a := smokeSpec("same-config-a", 0)
	b := smokeSpec("same-config-b", 0)
	results, err := Execute(2, 7, []RunSpec{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Spec.Seed == 0 || results[1].Spec.Seed == 0 {
		t.Fatal("executor should resolve zero seeds")
	}
	if results[0].Spec.Seed == results[1].Spec.Seed {
		t.Error("distinct spec names should get decorrelated derived seeds")
	}
}

func TestExecuteErrorPropagation(t *testing.T) {
	good := smokeSpec("good", 1)
	bad := smokeSpec("bad", 1)
	bad.Algorithm = "no-such-algorithm"
	_, err := Execute(2, 1, []RunSpec{good, bad})
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("want error naming the failing spec, got %v", err)
	}
}

func TestLoadSpecRoundTrip(t *testing.T) {
	patterns := []loadgen.Pattern{
		loadgen.Constant{RPS: 12},
		loadgen.Wave{Base: 10, Amplitude: 0.3, Period: 8 * time.Minute, PhaseShift: time.Minute},
		loadgen.Burst{Base: 5, Peak: 20, Period: 10 * time.Minute, BurstLen: 2 * time.Minute, PhaseShift: 3 * time.Minute},
		loadgen.Ramp{Start: 1, End: 9, Duration: 5 * time.Minute},
		loadgen.Diurnal{Base: 8, DayAmplitude: 0.5, Day: 24 * time.Hour, RippleAmplitude: 0.1, Ripple: time.Hour},
		loadgen.FlashCrowd{Base: 4, Peak: 40, Start: time.Minute, RampUp: 30 * time.Second, Hold: 2 * time.Minute, Decay: time.Minute},
		loadgen.Scaled{Pattern: loadgen.Constant{RPS: 6}, Factor: 0.5},
	}
	for _, p := range patterns {
		spec := FromPattern(p)
		back, err := spec.Pattern()
		if err != nil {
			t.Fatalf("%T: %v", p, err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Errorf("%T: round trip changed the pattern:\n  in  %+v\n  out %+v", p, p, back)
		}
	}

	// Arbitrary implementations fall back to the custom escape hatch.
	custom := loadgen.Func(func(t time.Duration) float64 { return 1 })
	spec := FromPattern(custom)
	if spec.Type != "custom" {
		t.Fatalf("want custom fallback, got %q", spec.Type)
	}
	if _, err := spec.Pattern(); err != nil {
		t.Fatalf("custom round trip: %v", err)
	}

	// Nil pattern means "no generator" and survives the round trip.
	if got := FromPattern(nil); got.Type != "" {
		t.Errorf("nil pattern should map to empty type, got %q", got.Type)
	}
	if p, err := (LoadSpec{}).Pattern(); err != nil || p != nil {
		t.Errorf("empty spec should yield nil pattern, got %v, %v", p, err)
	}

	// Error cases.
	if _, err := (LoadSpec{Type: "scaled"}).Pattern(); err == nil {
		t.Error("scaled without inner should error")
	}
	if _, err := (LoadSpec{Type: "custom"}).Pattern(); err == nil {
		t.Error("custom without value should error")
	}
	if _, err := (LoadSpec{Type: "squarewave"}).Pattern(); err == nil {
		t.Error("unknown type should error")
	}
}

func TestNewAlgorithmNaming(t *testing.T) {
	// Every accepted name round-trips through Algorithm.Name().
	for _, name := range []string{
		"kubernetes", "network", "hybrid", "hybridmem",
		"hybrid-noreclaim", "hybridmem-noreclaim",
		"hybrid-vertical-only", "hybridmem-vertical-only",
		"hybrid-horizontal-only", "hybridmem-horizontal-only",
		"kubernetes-predictive", "hybridmem-predictive",
		"hybridmem-noreclaim-predictive",
	} {
		algo, err := NewAlgorithm(name, core.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if algo == nil || algo.Name() != name {
			t.Errorf("%s: got %v", name, algo)
		}
	}
	for _, name := range []string{"", "none"} {
		algo, err := NewAlgorithm(name, core.DefaultConfig())
		if err != nil || algo != nil {
			t.Errorf("%q should be nil, nil; got %v, %v", name, algo, err)
		}
	}
	for _, name := range []string{"nope", "kubernetes-noreclaim", "network-vertical-only", "hybrid-bogus"} {
		if _, err := NewAlgorithm(name, core.DefaultConfig()); err == nil {
			t.Errorf("%q should be rejected", name)
		}
	}
}

func TestRunRejectsZeroDuration(t *testing.T) {
	spec := smokeSpec("no-duration", 1)
	spec.Duration = 0
	if _, err := Run(spec); err == nil {
		t.Error("zero duration should error")
	}
}

// TestValidate checks RunSpec.Validate against the effective platform config
// and the service rules, and that Build reports the same error behind the
// spec name.
func TestValidate(t *testing.T) {
	if err := (RunSpec{Name: "defaults", Seed: 1}).Validate(); err != nil {
		t.Errorf("zero platform and duration: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*RunSpec)
		want   string
	}{
		{"nodes without tick", func(s *RunSpec) { s.Platform = platform.Config{Nodes: 4} }, "tick must be positive"},
		{"partial defaulted platform", func(s *RunSpec) { s.Platform = platform.Config{}; s.Platform.Zones = 4 }, "may set only seed and observe"},
		{"empty service name", func(s *RunSpec) { s.Services[0].Spec.Name = "" }, "service with empty name"},
		{"duplicate service", func(s *RunSpec) { s.Services = append(s.Services, s.Services[0]) }, `duplicate service "svc"`},
		{"invalid service spec", func(s *RunSpec) { s.Services[0].Spec.MaxReplicas = 0 }, `service "svc"`},
		{"unknown load", func(s *RunSpec) { s.Services[0].Load.Type = "sawtooth" }, `unknown load type "sawtooth"`},
		{"unknown algorithm", func(s *RunSpec) { s.Algorithm = "bogus" }, `unknown algorithm "bogus"`},
		{"failure names no node", func(s *RunSpec) {
			s.NodeFailures = []NodeFailure{{At: time.Second, Node: "node-3"}}
		}, `node failure names unknown node "node-3"`},
		{"negative failure time", func(s *RunSpec) {
			s.NodeFailures = []NodeFailure{{At: -time.Second, Node: "node-0"}}
		}, `node failure "node-0" at -1s, want >= 0`},
		{"recovery without ID", func(s *RunSpec) {
			s.NodeRecoveries = []NodeRecovery{{At: time.Second}}
		}, "node recovery with empty ID"},
		{"negative recovery time", func(s *RunSpec) {
			s.NodeRecoveries = []NodeRecovery{{At: -time.Second, Config: cluster.DefaultNodeConfig("spare")}}
		}, `node recovery "spare" at -1s, want >= 0`},
		{"duplicate recovery", func(s *RunSpec) {
			spare := NodeRecovery{At: time.Second, Config: cluster.DefaultNodeConfig("spare")}
			s.NodeRecoveries = []NodeRecovery{spare, spare}
		}, `node recovery "spare" names a machine that already exists`},
		{"recovery reuses a platform node", func(s *RunSpec) {
			s.NodeRecoveries = []NodeRecovery{{At: time.Second, Config: cluster.DefaultNodeConfig("node-2")}}
		}, `node recovery "node-2" names a machine that already exists`},
	}
	for _, tt := range tests {
		spec := smokeSpec("bad", 1)
		tt.mutate(&spec)
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: Validate error %v, want %q", tt.name, err, tt.want)
			continue
		}
		if _, _, berr := Build(spec); berr == nil || berr.Error() != "bad: "+err.Error() {
			t.Errorf("%s: Build error %v, want %q", tt.name, berr, "bad: "+err.Error())
		}
	}

	// A failure may name a platform node or a machine a recovery adds.
	spec := smokeSpec("churn", 1)
	spec.NodeRecoveries = []NodeRecovery{{At: time.Second, Config: cluster.DefaultNodeConfig("spare")}}
	spec.NodeFailures = []NodeFailure{{At: 0, Node: "node-2"}, {At: 2 * time.Second, Node: "spare"}}
	if err := spec.Validate(); err != nil {
		t.Errorf("valid churn schedule: %v", err)
	}
}

// TestDefaultedPlatformKeepsSeedAndObserve: a defaulted platform may set only
// Seed and Observe, so the build keeps both; a non-zero RunSpec.Seed still
// overrides Platform.Seed.
func TestDefaultedPlatformKeepsSeedAndObserve(t *testing.T) {
	spec := RunSpec{Name: "defaulted", Platform: platform.Config{Observe: true, Seed: 9}}
	cfg, err := spec.platformConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Observe || cfg.Seed != 9 || cfg.Nodes != platform.DefaultConfig(9).Nodes {
		t.Errorf("defaulted platform: observe=%v seed=%d nodes=%d, want true, 9 and the defaults' nodes", cfg.Observe, cfg.Seed, cfg.Nodes)
	}
	w, _, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if w.Journal() == nil {
		t.Error("Platform.Observe on a defaulted platform built no journal")
	}
	spec.Seed = 5
	if cfg, _ := spec.platformConfig(); cfg.Seed != 5 {
		t.Errorf("RunSpec.Seed 5 with Platform.Seed 9: seed %d, want 5", cfg.Seed)
	}
}
