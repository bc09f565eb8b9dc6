package hyscale

import (
	"strings"
	"testing"
	"time"

	"hyscale/internal/resources"
)

func TestNewAlgorithm(t *testing.T) {
	for _, name := range []AlgorithmName{AlgoKubernetes, AlgoNetwork, AlgoHyScaleCPU, AlgoHyScaleCPUMem} {
		algo, err := NewAlgorithm(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if algo == nil || algo.Name() != string(name) {
			t.Errorf("%s: got %v", name, algo)
		}
	}
	if algo, err := NewAlgorithm(AlgoNone); err != nil || algo != nil {
		t.Error("AlgoNone should be nil, nil")
	}
	if _, err := NewAlgorithm("bogus"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestServiceSpecHelpers(t *testing.T) {
	cpu := CPUBoundService("a", 0.2)
	if cpu.CPUPerRequest != 0.2 || cpu.Name != "a" {
		t.Errorf("CPUBoundService = %+v", cpu)
	}
	if err := cpu.Validate(); err != nil {
		t.Errorf("CPUBoundService invalid: %v", err)
	}
	mem := MemoryBoundService("m", 64)
	if mem.MemPerRequest != 64 {
		t.Errorf("MemoryBoundService = %+v", mem)
	}
	if err := mem.Validate(); err != nil {
		t.Errorf("MemoryBoundService invalid: %v", err)
	}
	net := NetworkBoundService("n", 8, 80)
	if net.NetPerRequest != 8 || net.InitialReplicaNetMbps != 80 {
		t.Errorf("NetworkBoundService = %+v", net)
	}
	if err := net.Validate(); err != nil {
		t.Errorf("NetworkBoundService invalid: %v", err)
	}
	mixed := MixedService("x", 0.1, 90)
	if mixed.CPUPerRequest != 0.1 || mixed.MemPerRequest != 90 {
		t.Errorf("MixedService = %+v", mixed)
	}
	if err := mixed.Validate(); err != nil {
		t.Errorf("MixedService invalid: %v", err)
	}
}

func TestLoadHelpers(t *testing.T) {
	if ConstantLoad(5).Rate(time.Hour) != 5 {
		t.Error("ConstantLoad wrong")
	}
	w := WaveLoad(10, 0.5, time.Minute)
	if w.Rate(15*time.Second) <= 10 {
		t.Error("WaveLoad peak missing")
	}
	b := BurstLoad(1, 9, 10*time.Minute, time.Minute)
	if b.Rate(30*time.Second) != 9 || b.Rate(5*time.Minute) != 1 {
		t.Error("BurstLoad wrong")
	}
}

func TestSimulationEndToEnd(t *testing.T) {
	cfg := DefaultSimConfig(1)
	cfg.Nodes = 4
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AddService(CPUBoundService("api", 0.1), 0.5, ConstantLoad(10)); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	r := sim.Report()
	if r.Completed < 1000 {
		t.Errorf("completed = %d, want >= 1000", r.Completed)
	}
	if r.FailedPercent() > 1 {
		t.Errorf("failed = %.2f%%", r.FailedPercent())
	}
	if sim.Replicas("api") < 1 {
		t.Error("no replicas")
	}
	sr := sim.ServiceReport("api")
	if sr.Completed != r.Completed {
		t.Error("single-service report should equal aggregate")
	}
	if sim.Actions().Vertical == 0 {
		t.Error("hybridmem issued no vertical actions under load")
	}
	if sim.World() == nil {
		t.Error("World() nil")
	}
}

func TestSimulationDefaults(t *testing.T) {
	sim, err := NewSimulation(DefaultSimConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sim.World().Cluster().Nodes()); got != 19 {
		t.Errorf("default nodes = %d, want 19 (paper setup)", got)
	}
	if sim.World().Control().Algorithm().Name() != "hybridmem" {
		t.Error("default algorithm should be hybridmem")
	}
}

func TestSimulationCustomNodeShape(t *testing.T) {
	cfg := DefaultSimConfig(1)
	cfg.Nodes = 2
	cfg.NodeTemplate.Capacity = resources.Vector{CPU: 8, MemMB: 16384, NetMbps: 2000}
	cfg.NodeTemplate.Net.CapacityMbps = 2000
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cap := sim.World().Cluster().Node("node-0").Capacity()
	if cap.CPU != 8 || cap.MemMB != 16384 || cap.NetMbps != 2000 {
		t.Errorf("capacity = %v", cap)
	}
}

// TestSimulationRejectsPartialPlatform: a PlatformConfig that leaves Nodes
// and Tick zero takes the paper's defaults whole, so any other field set on
// it would be dropped; the facade rejects it instead. Seed and Observe are
// the two fields the defaulting keeps.
func TestSimulationRejectsPartialPlatform(t *testing.T) {
	var cfg SimConfig
	cfg.Zones = 2
	_, err := NewSimulation(cfg)
	if err == nil || !strings.Contains(err.Error(), "may set only seed and observe") {
		t.Errorf("Zones-only platform: error %v, want a partial-config rejection", err)
	}
	if _, err := NewSimulation(SimConfig{PlatformConfig: PlatformConfig{Seed: 3, Observe: true}}); err != nil {
		t.Errorf("Seed+Observe-only platform rejected: %v", err)
	}
}

func TestSimulationBadAlgorithm(t *testing.T) {
	if _, err := NewSimulation(SimConfig{Algorithm: "bogus"}); err == nil {
		t.Error("bogus algorithm accepted")
	}
}

func TestSimulationAlgoNone(t *testing.T) {
	cfg := DefaultSimConfig(1)
	cfg.Nodes = 2
	cfg.Algorithm = AlgoNone
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AddService(CPUBoundService("a", 0.05), 0.5, ConstantLoad(2)); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	a := sim.Actions()
	if a.Vertical != 0 || a.ScaleIns != 0 {
		t.Errorf("AlgoNone scaled: %+v", a)
	}
}

func TestNodeDefaults(t *testing.T) {
	n := NodeDefaults()
	if n.Capacity.CPU != 4 || n.Capacity.MemMB != 8192 {
		t.Errorf("NodeDefaults = %+v", n.Capacity)
	}
}
