package platform

import (
	"testing"
	"time"

	"hyscale/internal/core"
	"hyscale/internal/loadgen"
	"hyscale/internal/resources"
	"hyscale/internal/workload"
)

func cpuSpec(name string) workload.ServiceSpec {
	return workload.ServiceSpec{
		Name: name, Kind: workload.KindCPUBound,
		CPUPerRequest: 0.1, MemPerRequest: 4, BaselineMemMB: 100,
		InitialReplicaCPU: 1, InitialReplicaMemMB: 512,
		MinReplicas: 1, MaxReplicas: 6, Timeout: 10 * time.Second,
	}
}

func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Nodes = 4
	cfg.BaseLatency = 0
	cfg.DistributionOverhead = 0
	return cfg
}

func TestWorldRunCompletesRequests(t *testing.T) {
	w, err := New(smallConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddService(cpuSpec("a"), 0.5, loadgen.Constant{RPS: 5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	s := w.Summary()
	// ~5 rps for 30 s, minus the tail still in flight.
	if s.Completed < 120 {
		t.Errorf("completed = %d, want >= 120", s.Completed)
	}
	if s.FailedPercent() > 1 {
		t.Errorf("failed = %.2f%%, want ~0", s.FailedPercent())
	}
	if s.MeanLatency <= 0 || s.MeanLatency > time.Second {
		t.Errorf("mean latency = %v, implausible", s.MeanLatency)
	}
}

func TestWorldValidation(t *testing.T) {
	cfg := smallConfig(1)
	cfg.Nodes = 0
	if _, err := New(cfg, nil); err == nil {
		t.Error("zero nodes accepted")
	}
	cfg = smallConfig(1)
	cfg.Tick = 0
	if _, err := New(cfg, nil); err == nil {
		t.Error("zero tick accepted")
	}
}

func TestInjectRequestsFixedCount(t *testing.T) {
	w, err := New(smallConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddService(cpuSpec("a"), 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.InjectRequests(time.Second, 10*time.Second, "a", 50); err != nil {
		t.Fatal(err)
	}
	if err := w.InjectRequests(0, time.Second, "ghost", 1); err == nil {
		t.Error("unknown service accepted")
	}
	if err := w.RunUntilDrained(11*time.Second, time.Minute); err != nil {
		t.Fatal(err)
	}
	s := w.Summary()
	if s.Requests != 50 {
		t.Errorf("requests = %d, want 50", s.Requests)
	}
	if s.Completed != 50 {
		t.Errorf("completed = %d, want 50", s.Completed)
	}
}

func TestNoBackendIsConnectionFailure(t *testing.T) {
	w, err := New(smallConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddService(cpuSpec("a"), 0, nil); err != nil {
		t.Fatal(err)
	}
	// Kill the only replica out from under the balancer.
	for _, rep := range w.Control().Replicas("a") {
		_, node := w.Cluster().FindContainer(rep.ID)
		node.RemoveContainer(rep.ID)
	}
	if err := w.InjectRequests(time.Second, time.Second, "a", 10); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	s := w.Summary()
	if s.ConnectionFailures != 10 {
		t.Errorf("connection failures = %d, want 10", s.ConnectionFailures)
	}
}

func TestTimeoutsAreConnectionFailures(t *testing.T) {
	w, err := New(smallConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := cpuSpec("a")
	spec.CPUPerRequest = 1000 // can never finish before the 10s timeout
	if err := w.AddService(spec, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.InjectRequests(time.Second, time.Second, "a", 3); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	s := w.Summary()
	if s.ConnectionFailures != 3 {
		t.Errorf("connection failures = %d, want 3 (timeouts)", s.ConnectionFailures)
	}
}

// scaleInOnce removes one replica on its first decision, to exercise
// removal-failure accounting end to end.
type scaleInOnce struct{ done bool }

func (s *scaleInOnce) Name() string { return "scale-in-once" }
func (s *scaleInOnce) Decide(snap core.Snapshot) core.Plan {
	if s.done || len(snap.Services) == 0 || len(snap.Services[0].Replicas) == 0 {
		return core.Plan{}
	}
	s.done = true
	return core.Plan{Actions: []core.Action{
		core.ScaleIn{ContainerID: snap.Services[0].Replicas[0].ContainerID},
	}}
}

func TestRemovalFailuresRecorded(t *testing.T) {
	cfg := smallConfig(1)
	cfg.MonitorPeriod = 2 * time.Second
	w, err := New(cfg, &scaleInOnce{})
	if err != nil {
		t.Fatal(err)
	}
	spec := cpuSpec("a")
	spec.CPUPerRequest = 30 // long enough to still be in flight at the poll
	if err := w.AddService(spec, 0.5, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.InjectRequests(1500*time.Millisecond, 100*time.Millisecond, "a", 4); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	s := w.Summary()
	if s.RemovalFailures != 4 {
		t.Errorf("removal failures = %d, want 4", s.RemovalFailures)
	}
}

func TestDeployReplicaAndStress(t *testing.T) {
	w, err := New(smallConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddService(cpuSpec("a"), 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.DeployReplica("a", "node-1", resources.Vector{CPU: 2, MemMB: 256}); err != nil {
		t.Fatal(err)
	}
	if got := len(w.Control().Replicas("a")); got != 2 {
		t.Fatalf("replicas = %d, want 2", got)
	}
	if err := w.AddStressContainer("node-1", resources.Vector{CPU: 2, MemMB: 64}, 4, 8); err != nil {
		t.Fatal(err)
	}
	if err := w.AddStressContainer("ghost", resources.Vector{CPU: 1}, 1, 0); err == nil {
		t.Error("unknown node accepted")
	}
	// The stress container exists on the node but is not a service replica.
	n := w.Cluster().Node("node-1")
	if len(n.Containers()) != 2 {
		t.Errorf("node-1 containers = %d, want 2", len(n.Containers()))
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, time.Duration) {
		w, err := New(smallConfig(9), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AddService(cpuSpec("a"), 0.5, loadgen.Wave{Base: 8, Amplitude: 0.4, Period: 20 * time.Second}); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(time.Minute); err != nil {
			t.Fatal(err)
		}
		s := w.Summary()
		return s.Completed, s.MeanLatency
	}
	c1, m1 := run()
	c2, m2 := run()
	if c1 != c2 || m1 != m2 {
		t.Errorf("runs differ: %d/%v vs %d/%v", c1, m1, c2, m2)
	}
}

func TestAutoscalerGrowsReplicasUnderLoad(t *testing.T) {
	cfg := smallConfig(2)
	w, err := New(cfg, core.NewKubernetes(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	spec := cpuSpec("a")
	if err := w.AddService(spec, 0.5, loadgen.Constant{RPS: 30}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	// 30 rps * 0.11 cpu-s = 3.3 cores demanded; at 50% target K8s needs
	// ~7 replicas of 1 CPU, clamped by max 6.
	if got := len(w.Control().Replicas("a")); got < 3 {
		t.Errorf("replicas = %d, want >= 3 under sustained load", got)
	}
	if w.Control().Counts().ScaleOuts == 0 {
		t.Error("no scale-outs recorded")
	}
	if w.UtilSeries.Len() == 0 {
		t.Error("UtilSeries not recorded")
	}
	if w.ReplicaSeries["a"].Len() == 0 {
		t.Error("ReplicaSeries not recorded")
	}
}

func TestBaseLatencyCharged(t *testing.T) {
	cfg := smallConfig(1)
	cfg.BaseLatency = 100 * time.Millisecond
	w, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := cpuSpec("a")
	spec.CPUPerRequest = 0.001
	if err := w.AddService(spec, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.InjectRequests(time.Second, time.Second, "a", 10); err != nil {
		t.Fatal(err)
	}
	if err := w.RunUntilDrained(3*time.Second, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := w.Summary().MeanLatency; got < 100*time.Millisecond {
		t.Errorf("mean = %v, want >= the 100ms base latency", got)
	}
}
