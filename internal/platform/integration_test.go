package platform

// Integration tests: whole-platform runs mixing service kinds and
// algorithms, checking cross-module invariants rather than single-module
// behaviour — allocation accounting, metric conservation, determinism
// across algorithms, and recovery from node failures.

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/core"
	"hyscale/internal/faults"
	"hyscale/internal/loadgen"
	"hyscale/internal/monitor"
	"hyscale/internal/resources"
	"hyscale/internal/sim"
	"hyscale/internal/workload"
)

// mixedWorld builds a 10-node world with one service of each kind under
// moderate wave load.
func mixedWorld(t *testing.T, algo core.Algorithm, seed int64) *World {
	t.Helper()
	cfg := DefaultConfig(seed)
	cfg.Nodes = 10
	w, err := New(cfg, algo)
	if err != nil {
		t.Fatal(err)
	}
	specs := []workload.ServiceSpec{
		{
			Name: "cpu", Kind: workload.KindCPUBound,
			CPUPerRequest: 0.1, CPUOverheadPerRequest: 0.01, MemPerRequest: 2, BaselineMemMB: 300,
			InitialReplicaCPU: 1, InitialReplicaMemMB: 768,
			MinReplicas: 1, MaxReplicas: 6, Timeout: 30 * time.Second,
		},
		{
			Name: "mixed", Kind: workload.KindMixed,
			CPUPerRequest: 0.1, MemPerRequest: 60, BaselineMemMB: 300,
			InitialReplicaCPU: 1, InitialReplicaMemMB: 640,
			MinReplicas: 1, MaxReplicas: 6, Timeout: 30 * time.Second,
		},
		{
			Name: "net", Kind: workload.KindNetworkBound,
			CPUPerRequest: 0.03, MemPerRequest: 4, NetPerRequest: 5, BaselineMemMB: 200,
			InitialReplicaCPU: 1, InitialReplicaMemMB: 512, InitialReplicaNetMbps: 60,
			MinReplicas: 1, MaxReplicas: 6, Timeout: 30 * time.Second,
		},
	}
	for i, spec := range specs {
		pattern := loadgen.Wave{Base: 8, Amplitude: 0.3, Period: 4 * time.Minute,
			PhaseShift: time.Duration(i) * time.Minute}
		if err := w.AddService(spec, 0.5, pattern); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestIntegrationAllAlgorithmsStayHealthy runs every algorithm over the
// mixed world and checks global health: most requests complete, and the
// cluster's allocation accounting never goes insane.
func TestIntegrationAllAlgorithmsStayHealthy(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	algos := map[string]func() core.Algorithm{
		"kubernetes": func() core.Algorithm { return core.NewKubernetes(core.DefaultConfig()) },
		"network":    func() core.Algorithm { return core.NewNetworkHPA(core.DefaultConfig()) },
		"hybrid":     func() core.Algorithm { return core.NewHyScaleCPU(core.DefaultConfig()) },
		"hybridmem":  func() core.Algorithm { return core.NewHyScaleCPUMem(core.DefaultConfig()) },
	}
	for name, mk := range algos {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			w := mixedWorld(t, mk(), 11)
			if err := w.Run(10 * time.Minute); err != nil {
				t.Fatal(err)
			}
			s := w.Summary()
			if s.Requests < 10000 {
				t.Errorf("requests = %d, want >= 10000", s.Requests)
			}
			if s.FailedPercent() > 10 {
				t.Errorf("failed = %.2f%%, too unhealthy", s.FailedPercent())
			}
			if s.MeanLatency <= 0 || s.MeanLatency > 5*time.Second {
				t.Errorf("mean latency = %v, implausible", s.MeanLatency)
			}
		})
	}
}

// TestIntegrationAllocationAccounting checks the cluster-level invariant
// that drives every placement decision: HyScale's availability bookkeeping
// must keep per-node CPU allocations within a small factor of capacity
// (Docker shares allow oversubscription, but the planner works off
// advertised availability and should rarely exceed it).
func TestIntegrationAllocationAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	w := mixedWorld(t, core.NewHyScaleCPUMem(core.DefaultConfig()), 17)
	worst := 0.0
	// Piggyback an invariant probe on the engine every second.
	if err := w.Engine().SchedulePeriodic(time.Second, time.Second, func(e *sim.Engine) {
		for _, n := range w.Cluster().Nodes() {
			ratio := n.Allocated().CPU / n.Capacity().CPU
			if ratio > worst {
				worst = ratio
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if worst > 1.25 {
		t.Errorf("node CPU allocation reached %.0f%% of capacity — planner bookkeeping leak", worst*100)
	}
}

// TestIntegrationRequestConservation checks that every generated request is
// accounted exactly once: completed, removal failure, or connection failure.
func TestIntegrationRequestConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	cfg := DefaultConfig(3)
	cfg.Nodes = 4
	w, err := New(cfg, core.NewKubernetes(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	spec := cpuSpec("a")
	if err := w.AddService(spec, 0.5, nil); err != nil {
		t.Fatal(err)
	}
	const n = 500
	if err := w.InjectRequests(time.Second, 30*time.Second, "a", n); err != nil {
		t.Fatal(err)
	}
	if err := w.RunUntilDrained(31*time.Second, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	s := w.Summary()
	if got := s.Completed + s.RemovalFailures + s.ConnectionFailures; got != n {
		t.Errorf("accounted requests = %d, want %d (conservation)", got, n)
	}
}

// TestIntegrationConservationUnderFaults is the property-test form of
// request conservation: no matter which fault mix the injector draws —
// failed verticals, failed or slow starts, dropped stats, black-holed
// backends, hardening on or off — every injected request must still be
// accounted exactly once as completed, removal failure, or connection
// failure.
func TestIntegrationConservationUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	prop := func(seed int64, pVert, pStart, pSlow, pStats, pDown uint8, hardened bool) bool {
		// Map raw bytes into valid probabilities; keep start-failure below
		// ~0.7 so min-replica deployment cannot starve forever.
		p := func(b uint8, max float64) float64 { return max * float64(b) / 255 }
		cfg := DefaultConfig(seed)
		cfg.Nodes = 4
		cfg.Faults = faults.Config{
			Seed:             seed + 1,
			VerticalFailProb: p(pVert, 1.0),
			StartFailProb:    p(pStart, 0.7),
			StartSlowProb:    p(pSlow, 1.0),
			StartSlowBy:      6 * time.Second,
			StatsDropProb:    p(pStats, 1.0),
			BackendDownProb:  p(pDown, 0.5),
			BackendDownFor:   8 * time.Second,
			BackendDownEvery: 30 * time.Second,
		}
		cfg.HardeningOff = !hardened
		w, err := New(cfg, core.NewKubernetes(core.DefaultConfig()))
		if err != nil {
			t.Log(err)
			return false
		}
		if err := w.AddService(cpuSpec("a"), 0.5, nil); err != nil {
			t.Log(err)
			return false
		}
		const n = 300
		if err := w.InjectRequests(time.Second, 30*time.Second, "a", n); err != nil {
			t.Log(err)
			return false
		}
		if err := w.RunUntilDrained(31*time.Second, 3*time.Minute); err != nil {
			t.Log(err)
			return false
		}
		s := w.Summary()
		got := s.Completed + s.RemovalFailures + s.ConnectionFailures
		if got != n {
			t.Logf("seed=%d faults=%+v hardened=%v: accounted %d of %d",
				seed, cfg.Faults, hardened, got, n)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestIntegrationNodeFailureRecovery kills a node mid-run and checks that
// the algorithm's min-replica enforcement restores every service.
func TestIntegrationNodeFailureRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	w := mixedWorld(t, core.NewHyScaleCPUMem(core.DefaultConfig()), 5)
	// Fail every node hosting the cpu service's replicas at t=2m.
	if err := w.ScheduleNodeFailure(2*time.Minute, "node-0"); err != nil {
		t.Fatal(err)
	}
	if err := w.ScheduleNodeFailure(2*time.Minute, "node-1"); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(6 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := len(w.Cluster().Nodes()); got != 8 {
		t.Fatalf("nodes = %d, want 8 after failures", got)
	}
	for _, svc := range []string{"cpu", "mixed", "net"} {
		alive := 0
		for _, rep := range w.Control().Replicas(svc) {
			if rep.Routable() {
				alive++
			}
		}
		if alive == 0 {
			t.Errorf("service %s has no live replica after node failures", svc)
		}
	}
	// The failed nodes' replicas are gone from the replica lists.
	for _, svc := range []string{"cpu", "mixed", "net"} {
		for _, rep := range w.Control().Replicas(svc) {
			if rep.NodeID == "node-0" || rep.NodeID == "node-1" {
				t.Errorf("service %s still lists replica on failed node %s", svc, rep.NodeID)
			}
		}
	}
}

// TestIntegrationNodeRecoveryExpandsCluster verifies dynamically added
// machines become placement targets.
func TestIntegrationNodeRecoveryExpandsCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	cfg := DefaultConfig(7)
	cfg.Nodes = 2
	// Small originals: they cannot hold the full replica set, so placement
	// must spill onto the machines that join later.
	cfg.NodeTemplate.Capacity.CPU = 2
	w, err := New(cfg, core.NewKubernetes(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	spec := cpuSpec("a")
	spec.MaxReplicas = 8
	if err := w.AddService(spec, 0.5, loadgen.Constant{RPS: 40}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		nc := cluster.DefaultNodeConfig(fmt.Sprintf("extra-%d", i))
		if err := w.ScheduleNodeRecovery(time.Minute, nc); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Run(4 * time.Minute); err != nil {
		t.Fatal(err)
	}
	onExtra := 0
	for _, rep := range w.Control().Replicas("a") {
		if len(rep.NodeID) >= 5 && rep.NodeID[:5] == "extra" {
			onExtra++
		}
	}
	if onExtra == 0 {
		t.Error("no replicas placed on dynamically added machines")
	}
}

// nodeWatch is an algorithm that plans nothing and keeps the stats of one
// node from the latest snapshot that listed it.
type nodeWatch struct {
	id   string
	last *core.NodeStats
}

func (a *nodeWatch) Name() string { return "node-watch" }

func (a *nodeWatch) Decide(snap core.Snapshot) core.Plan {
	for _, n := range snap.Nodes {
		if n.ID == a.id {
			n.Hosts = slices.Clone(n.Hosts)
			a.last = &n
		}
	}
	return core.Plan{}
}

// TestReaddedNodeReportsItsOwnContainers fails a machine under self-healing
// and re-adds one under the same ID while the detector only suspects it, at
// one zone and at two. The control plane must then poll the new machine: a
// container placed on it shows in the node's snapshot stats, and its first
// answered poll counts as the node's recovery. The monitor's ordinal and
// name-keyed self-checks run throughout.
func TestReaddedNodeReportsItsOwnContainers(t *testing.T) {
	defer monitor.VerifyOrdinals(monitor.VerifyOrdinals(true))
	for _, zones := range []int{1, 2} {
		cfg := smallConfig(1)
		cfg.Zones = zones
		cfg.SelfHealing = monitor.DefaultSelfHealing()
		algo := &nodeWatch{id: "node-3"}
		w, err := New(cfg, algo)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"a", "b"} {
			if err := w.AddService(cpuSpec(name), 0.5, loadgen.Constant{RPS: 2}); err != nil {
				t.Fatal(err)
			}
		}
		// Polls at 15 s and 20 s miss node-3: suspect, not yet dead.
		if err := w.ScheduleNodeFailure(12*time.Second, "node-3"); err != nil {
			t.Fatal(err)
		}
		machine := cfg.NodeTemplate
		machine.ID = "node-3"
		if err := w.ScheduleNodeRecovery(22*time.Second, machine); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(23 * time.Second); err != nil {
			t.Fatal(err)
		}
		// Pin a 2-CPU replica on the new machine, through whichever service
		// is homed in its zone.
		svc, alloc := "a", resources.Vector{CPU: 2, MemMB: 512}
		if err := w.Control().StartReplica(svc, "node-3", alloc, 23*time.Second); err != nil {
			svc = "b"
			if err := w.Control().StartReplica(svc, "node-3", alloc, 23*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Run(31 * time.Second); err != nil {
			t.Fatal(err)
		}
		got := algo.last
		if got == nil {
			t.Fatalf("zones=%d: no snapshot listed node-3", zones)
		}
		want := w.Cluster().Node("node-3").Capacity().CPU - 2
		if got.Available.CPU != want || !slices.Equal(got.Hosts, []string{svc}) {
			t.Errorf("zones=%d: node-3 reports %v CPUs available hosting %v, want %v hosting [%s]", zones, got.Available.CPU, got.Hosts, want, svc)
		}
		if r := w.Control().Recovery(); r.Suspected != 1 || r.Recovered != 1 || r.DeclaredDead != 0 {
			t.Errorf("zones=%d: recovery counts %+v, want node-3 suspected once and recovered once", zones, r)
		}
	}
}

// TestScheduleNodeRecoveryRejectsBadMachine checks a recovery machine that
// cluster.NewNode would refuse is rejected when it is scheduled, instead of
// silently joining nothing when the join fires. A machine whose ID is taken
// by the time it joins is still a no-op at fire time.
func TestScheduleNodeRecoveryRejectsBadMachine(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.Nodes = 2
	w, err := New(cfg, core.NewKubernetes(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []func(*cluster.NodeConfig){
		func(c *cluster.NodeConfig) { c.Capacity.CPU = 0 },
		func(c *cluster.NodeConfig) { c.Capacity.MemMB = -1 },
		func(c *cluster.NodeConfig) { c.SwapPenalty = 0.5 },
		func(c *cluster.NodeConfig) { c.CPUContention = -0.1 },
	} {
		nc := cluster.DefaultNodeConfig("spare")
		bad(&nc)
		if err := w.ScheduleNodeRecovery(time.Minute, nc); err == nil {
			t.Errorf("scheduled a recovery of %+v", nc)
		}
	}
	for _, id := range []string{"spare", "node-0"} {
		if err := w.ScheduleNodeRecovery(time.Minute, cluster.DefaultNodeConfig(id)); err != nil {
			t.Fatalf("recovery of %s: %v", id, err)
		}
	}
	if err := w.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, n := range w.Cluster().Nodes() {
		ids = append(ids, n.ID())
	}
	if want := []string{"node-0", "node-1", "spare"}; !slices.Equal(ids, want) {
		t.Errorf("nodes after the joins %v, want %v", ids, want)
	}
}

// TestIntegrationCostTracking checks the cost report reflects the run.
func TestIntegrationCostTracking(t *testing.T) {
	w := mixedWorld(t, core.NewHyScaleCPUMem(core.DefaultConfig()), 13)
	if err := w.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	r := w.CostReport()
	if r.MachineHours <= 0 {
		t.Error("no machine-hours accumulated")
	}
	if r.Completions == 0 {
		t.Error("no completions observed by cost tracker")
	}
	if r.TotalCost <= 0 {
		t.Error("zero total cost")
	}
	s := w.Summary()
	if r.Completions != s.Completed {
		t.Errorf("cost completions %d != metrics completed %d", r.Completions, s.Completed)
	}
	if r.Failures != s.RemovalFailures+s.ConnectionFailures {
		t.Errorf("cost failures %d != metrics failures %d", r.Failures, s.RemovalFailures+s.ConnectionFailures)
	}
}
