package platform

// Data-plane index tests: container-ID uniqueness (what lets the balancer's
// probe cache key by slot and container) and request recycling.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/core"
	"hyscale/internal/faults"
	"hyscale/internal/loadgen"
	"hyscale/internal/monitor"
	"hyscale/internal/workload"
)

// drWorld is a zoned world that drives every placement change the data
// plane must follow: a node failure and a replacement machine, a zone
// outage with evacuation (spilling over up to spill zones), readoption once
// the zone heals, and a monitor crash restored from its checkpoint.
func drWorld(t *testing.T, seed int64, spill int) *World {
	t.Helper()
	cfg := DefaultConfig(seed)
	cfg.Nodes = 9
	cfg.Zones = 3
	cfg.SelfHealing = monitor.DefaultSelfHealing()
	cfg.Evacuate = true
	cfg.SpilloverZones = spill
	cfg.Faults = faults.Config{
		Seed: seed,
		Windows: []faults.Window{
			{Kind: faults.KindZoneOutage, Target: "0", From: 60 * time.Second, To: 150 * time.Second},
			{Kind: faults.KindMonitorCrash, From: 240 * time.Second, To: 255 * time.Second},
		},
	}
	w, err := New(cfg, core.NewHyScaleCPUMem(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		spec := workload.ServiceSpec{
			Name: fmt.Sprintf("svc-%d", i), Kind: workload.KindCPUBound,
			CPUPerRequest: 0.08, CPUOverheadPerRequest: 0.01, MemPerRequest: 2, BaselineMemMB: 200,
			InitialReplicaCPU: 1, InitialReplicaMemMB: 512,
			MinReplicas: 5, MaxReplicas: 8, Timeout: 30 * time.Second,
		}
		pattern := loadgen.Wave{Base: 25, Amplitude: 0.4, Period: 3 * time.Minute,
			PhaseShift: time.Duration(i) * 20 * time.Second}
		if err := w.AddService(spec, 0.5, pattern); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.ScheduleNodeFailure(40*time.Second, "node-4"); err != nil {
		t.Fatal(err)
	}
	if err := w.ScheduleNodeRecovery(100*time.Second, cluster.DefaultNodeConfig("node-99")); err != nil {
		t.Fatal(err)
	}
	return w
}

// stepTicks runs w one tick at a time to the horizon, calling check after
// every tick.
func stepTicks(t *testing.T, w *World, horizon time.Duration, check func(now time.Duration)) {
	t.Helper()
	for now := w.cfg.Tick; now <= horizon; now += w.cfg.Tick {
		if err := w.Run(now); err != nil {
			t.Fatal(err)
		}
		check(now)
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestContainerIDsNeverReissued records every container ever seen on any
// node, through churn, a node failure, zone evacuation with spillover
// guests, readoption and a checkpoint restore, and requires that no ID ever
// names two containers. The balancer's probe cache relies on it: it keys by
// slot and ID and is never told of removals, which matches the old ID-keyed
// cache only while no ID is reissued.
func TestContainerIDsNeverReissued(t *testing.T) {
	for _, w := range []*World{drWorld(t, 5, 3), drWorld(t, 11, 1), zonedChurnWorld(t, 3, 3)} {
		seen := map[string]*container.Container{}
		stepTicks(t, w, 320*time.Second, func(now time.Duration) {
			for _, n := range w.Cluster().Nodes() {
				for _, c := range n.Containers() {
					if prev, ok := seen[c.ID]; ok && prev != c {
						t.Fatalf("%v: container ID %s issued twice", now, c.ID)
					}
					seen[c.ID] = c
				}
			}
		})
		if len(seen) == 0 {
			t.Fatal("no containers observed")
		}
	}
}

// churner alternates, poll by poll, a scale-out of every service and a
// scale-in of each service's busiest replica, so removals land on replicas
// with requests in flight.
type churner struct{ polls int }

func (c *churner) Name() string { return "churner" }

func (c *churner) Decide(snap core.Snapshot) core.Plan {
	c.polls++
	plan := core.Plan{Epoch: snap.Epoch}
	base := 0 // flat ordinal of the service's first replica
	for _, s := range snap.Services {
		if c.polls%2 == 1 || len(s.Replicas) < 2 {
			plan.Actions = append(plan.Actions, core.StartOn(s.Info.Ord, "", s.Info.InitialAlloc))
			base += len(s.Replicas)
			continue
		}
		busiest := 0
		for j, r := range s.Replicas {
			if r.Inflight > s.Replicas[busiest].Inflight {
				busiest = j
			}
		}
		a := core.Remove(s.Replicas[busiest].ContainerID)
		a.Svc, a.Replica = int32(s.Info.Ord+1), int32(base+busiest+1)
		plan.Actions = append(plan.Actions, a)
		base += len(s.Replicas)
	}
	return plan
}

// recycled reports whether r carries the pool's poison.
func recycled(r *workload.Request) bool {
	return r.Phase == workload.PhaseRecycled || math.IsNaN(r.RemainingCPU) || r.ServiceOrd < 0
}

// TestRecycledRequestsNeverLive runs a plain world whose requests end every
// way a plain request can — completion, timeout, routing failure, scale-in
// removal and node-failure removal — and checks after each tick that no
// container holds a request the pool took back, and that every generated
// request is either accounted for or still in flight.
func TestRecycledRequestsNeverLive(t *testing.T) {
	cfg := smallConfig(7)
	cfg.Nodes = 5
	cfg.MonitorPeriod = 2 * time.Second
	cfg.PoissonArrivals = true
	w, err := New(cfg, &churner{})
	if err != nil {
		t.Fatal(err)
	}
	var specs []workload.ServiceSpec
	var patterns []loadgen.Pattern
	for i := 0; i < 3; i++ {
		spec := cpuSpec(fmt.Sprintf("svc-%d", i))
		spec.CPUPerRequest = 0.4
		spec.MemPerRequest = 30
		spec.Timeout = 3 * time.Second
		spec.MaxReplicas = 4
		specs = append(specs, spec)
		patterns = append(patterns, loadgen.Burst{Base: 3, Peak: 40, Period: 20 * time.Second,
			BurstLen: 6 * time.Second, PhaseShift: time.Duration(i) * 5 * time.Second})
		if err := w.AddService(spec, 0.5, patterns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.ScheduleNodeFailure(31*time.Second, "node-1"); err != nil {
		t.Fatal(err)
	}

	// Replay the arrival process to know how many requests were generated.
	var replayIDs loadgen.IDAllocator
	var gens []*loadgen.Generator
	for i := range specs {
		g := loadgen.NewGenerator(specs[i], patterns[i], &replayIDs)
		g.Poisson = true
		gens = append(gens, g)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	generated := 0
	stepTicks(t, w, 90*time.Second, func(now time.Duration) {
		for _, g := range gens {
			generated += len(g.Arrivals(now, cfg.Tick, rng))
		}
		inflight := 0
		for _, n := range w.Cluster().Nodes() {
			for _, c := range n.Containers() {
				for _, r := range c.InflightRequests() {
					if recycled(r) {
						t.Fatalf("%v: container %s holds recycled request %d", now, c.ID, r.ID)
					}
				}
				inflight += c.Inflight()
			}
		}
		// Requests is Completed + RemovalFailures + ConnectionFailures.
		s := w.Summary()
		if got := int(s.Requests) + inflight; got != generated {
			t.Fatalf("%v: %d requests accounted + %d in flight != %d generated", now, s.Requests, inflight, generated)
		}
	})

	s, cf := w.Summary(), w.ConnFailures()
	routing := cf.Starting + cf.Absent + cf.Unhealthy
	if s.Completed == 0 || s.RemovalFailures == 0 || routing == 0 || s.ConnectionFailures <= routing {
		t.Errorf("a request outcome was never exercised: %+v, routing failures %+v", s, cf)
	}
	if w.Control().Counts().ScaleIns == 0 {
		t.Error("no scale-ins")
	}
}

// TestWarmRequestPathAllocFree pins the per-request cost of a warm plain
// world at zero allocations: arrivals drawn from the request pool, routed
// through the route-slot view and the slot-indexed probe cache, and
// completed into a reserved recorder. No poll runs inside the measured
// ticks, so every allocation would be the request path's.
func TestWarmRequestPathAllocFree(t *testing.T) {
	cfg := smallConfig(3)
	cfg.MonitorPeriod = time.Hour
	cfg.PoissonArrivals = true
	// An inert backend-fault window turns on the balancer's health probes.
	cfg.Faults = faults.Config{Windows: []faults.Window{
		{Kind: faults.KindBackend, Target: "none", From: time.Hour, To: 2 * time.Hour},
	}}
	w, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("svc-%d", i)
		if err := w.AddService(cpuSpec(name), 0.5, loadgen.Constant{RPS: 40}); err != nil {
			t.Fatal(err)
		}
		w.Recorder().Reserve(name, 1<<16)
	}
	now := 20 * time.Second
	if err := w.Run(now); err != nil { // warm: pool, buffers and probe cache sized
		t.Fatal(err)
	}
	before := w.Summary().Completed
	allocs := testing.AllocsPerRun(200, func() {
		now += cfg.Tick
		if err := w.Run(now); err != nil {
			t.Fatal(err)
		}
	})
	if done := w.Summary().Completed - before; done < 1000 {
		t.Fatalf("only %d requests completed in the measured ticks", done)
	}
	if allocs != 0 {
		t.Errorf("warm tick allocates %.2f objects, want 0", allocs)
	}
}
