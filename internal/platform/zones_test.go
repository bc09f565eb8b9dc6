package platform

// Cross-zone conservation property test (the zoned control plane's ledger
// integrity): under node churn, a partition and a monitor-crash window, the
// replica ledgers summed across all zone arbiters must agree exactly with
// the physical cluster — the same ground truth the unsharded monitor's
// ledger is graded against — and the merged action/recovery counters must
// balance the replica conservation equation.

import (
	"fmt"
	"reflect"
	"slices"
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

func zonedChurnWorld(t *testing.T, seed int64, zones int) *World {
	t.Helper()
	cfg := DefaultConfig(seed)
	cfg.Nodes = 12
	cfg.Zones = zones
	cfg.SelfHealing = monitor.DefaultSelfHealing()
	cfg.Faults = faults.Config{
		Seed: seed,
		Windows: []faults.Window{
			{Kind: faults.KindPartition, Target: "node-2", From: 60 * time.Second, To: 90 * time.Second},
			{Kind: faults.KindMonitorCrash, From: 120 * time.Second, To: 140 * time.Second},
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
			MinReplicas: 1, MaxReplicas: 4, Timeout: 30 * time.Second,
		}
		pattern := loadgen.Wave{Base: 10, Amplitude: 0.4, Period: 3 * time.Minute,
			PhaseShift: time.Duration(i) * 20 * time.Second}
		if err := w.AddService(spec, 0.5, pattern); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.ScheduleNodeFailure(50*time.Second, "node-5"); err != nil {
		t.Fatal(err)
	}
	if err := w.ScheduleNodeRecovery(100*time.Second, cluster.DefaultNodeConfig("node-99")); err != nil {
		t.Fatal(err)
	}
	return w
}

// liveReplicas counts non-removed containers of the service in the physical
// cluster — the ground-truth ledger below any control plane.
func liveReplicas(w *World, service string) int {
	n := 0
	for _, node := range w.Cluster().Nodes() {
		for _, c := range node.Containers() {
			if c.Service == service && c.State != container.StateRemoved {
				n++
			}
		}
	}
	return n
}

func checkLedger(t *testing.T, w *World, label string) {
	t.Helper()
	ctl := w.Control()
	totalPhysical := 0
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("svc-%d", i)
		phys := liveReplicas(w, name)
		totalPhysical += phys
		if got := ctl.ReplicaCount(name); got != phys {
			t.Errorf("%s: %s ledger has %d replicas, physical cluster has %d", label, name, got, phys)
		}
	}
	// Conservation: every replica ever started is now live, scaled in, or
	// lost to a dead node — with re-adopted survivors returned and stale
	// drains (counted in both ScaleIns and ReplicasLost) added back.
	c, r := ctl.Counts(), ctl.Recovery()
	balance := int(c.ScaleOuts) - int(c.ScaleIns) - int(r.ReplicasLost) + int(r.Readopted) + int(r.StaleDrained)
	if balance != totalPhysical {
		t.Errorf("%s: ledger balance %d (scaleOuts %d - scaleIns %d - lost %d + readopted %d + staleDrained %d) != %d live replicas",
			label, balance, c.ScaleOuts, c.ScaleIns, r.ReplicasLost, r.Readopted, r.StaleDrained, totalPhysical)
	}
	if c.ScaleOuts == 0 {
		t.Errorf("%s: no scale-outs recorded — workload misconfigured", label)
	}
	// Zoned runs: ownership must be exclusive and exhaustive — the per-zone
	// replica sums cover the physical cluster exactly once.
	if summaries := ctl.ZoneSummaries(); summaries != nil {
		zoneTotal := 0
		for _, zs := range summaries {
			zoneTotal += zs.Replicas
		}
		if zoneTotal != totalPhysical {
			t.Errorf("%s: zone arbiters own %d replicas, physical cluster has %d", label, zoneTotal, totalPhysical)
		}
	}
}

func TestZonedConservationUnderChurnAndFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	for _, seed := range []int64{3, 17} {
		// Run well past the last fault window (crash ends at 140s) so limbo
		// replicas resolve, reconciliation drains, and the ledgers quiesce.
		zoned := zonedChurnWorld(t, seed, 3)
		if err := zoned.Run(4 * time.Minute); err != nil {
			t.Fatal(err)
		}
		checkLedger(t, zoned, fmt.Sprintf("seed %d zones=3", seed))
		if zoned.Control().Recovery().DeclaredDead == 0 {
			t.Errorf("seed %d: churn never tripped the failure detector", seed)
		}

		// The unsharded control plane over the identical scenario must honour
		// the same ledger identities — the reference the satellite names.
		flat := zonedChurnWorld(t, seed, 1)
		if err := flat.Run(4 * time.Minute); err != nil {
			t.Fatal(err)
		}
		checkLedger(t, flat, fmt.Sprintf("seed %d zones=1", seed))
	}
}

// zonedOutageWorld is the evacuation variant of zonedChurnWorld: a full
// zone-outage window with evacuation and spillover enabled, healing early
// enough that the evacuate → readopt round trip completes within the run.
func zonedOutageWorld(t *testing.T, seed int64, zones int) *World {
	t.Helper()
	cfg := DefaultConfig(seed)
	cfg.Nodes = 12
	cfg.Zones = zones
	cfg.SelfHealing = monitor.DefaultSelfHealing()
	cfg.Evacuate = true
	cfg.SpilloverZones = 2
	cfg.Faults = faults.Config{
		Seed: seed,
		Windows: []faults.Window{
			{Kind: faults.KindZoneOutage, Target: "0", From: 60 * time.Second, To: 150 * time.Second},
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
			MinReplicas: 1, MaxReplicas: 4, Timeout: 30 * time.Second,
		}
		pattern := loadgen.Wave{Base: 10, Amplitude: 0.4, Period: 3 * time.Minute,
			PhaseShift: time.Duration(i) * 20 * time.Second}
		if err := w.AddService(spec, 0.5, pattern); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestZonedConservationUnderZoneOutage drives the full disaster-recovery
// round trip — outage, evacuation, heal, re-adoption — and demands the same
// ledger identities as the churn test: per-service ledgers equal to the
// physical cluster, the merged counters balancing the conservation
// equation, and zone ownership exclusive and exhaustive. Nothing may leak
// across the evacuate → readopt cycle.
func TestZonedConservationUnderZoneOutage(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	for _, seed := range []int64{3, 17} {
		for _, zones := range []int{3, 8} {
			label := fmt.Sprintf("seed %d zones=%d", seed, zones)
			w := zonedOutageWorld(t, seed, zones)
			// The outage heals at 150s; the detector re-admission plus the
			// 30 s re-adoption cooldown land the migration home around 220s,
			// so 5 minutes leaves the ledgers time to quiesce.
			if err := w.Run(5 * time.Minute); err != nil {
				t.Fatal(err)
			}
			checkLedger(t, w, label)
			ev := w.ZoneEvac()
			if ev == nil {
				t.Fatalf("%s: ZoneEvac() = nil with evacuation enabled", label)
			}
			if ev.ZonesEvacuated == 0 || ev.ServicesEvacuated == 0 || ev.ReplicasDisplaced == 0 {
				t.Errorf("%s: outage never triggered an evacuation: %+v", label, *ev)
			}
			if ev.ZonesReadopted == 0 || ev.ServicesReadopted == 0 {
				t.Errorf("%s: healed zone was never re-adopted: %+v", label, *ev)
			}
			if w.Control().Recovery().DeclaredDead == 0 {
				t.Errorf("%s: outage never tripped the failure detector", label)
			}
		}
	}
}

// TestZonedOutageRunIsDeterministic re-runs the evacuation scenario and
// requires identical zone summaries, action counts and DR counters — the
// evacuation state machine must not introduce iteration-order or timing
// nondeterminism.
func TestZonedOutageRunIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	run := func() ([]monitor.ZoneSummary, monitor.ActionCounts, monitor.EvacCounts) {
		w := zonedOutageWorld(t, 9, 3)
		if err := w.Run(4 * time.Minute); err != nil {
			t.Fatal(err)
		}
		return w.Control().ZoneSummaries(), w.Control().Counts(), *w.ZoneEvac()
	}
	z1, c1, e1 := run()
	z2, c2, e2 := run()
	if !reflect.DeepEqual(z1, z2) {
		t.Fatalf("zone summaries differ between identical runs:\n%v\n%v", z1, z2)
	}
	if c1 != c2 {
		t.Fatalf("action counts differ: %v vs %v", c1, c2)
	}
	if e1 != e2 {
		t.Fatalf("evacuation counters differ: %+v vs %+v", e1, e2)
	}
}

func TestZonedRunIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	run := func() ([]monitor.ZoneSummary, monitor.ActionCounts, uint64) {
		w := zonedChurnWorld(t, 9, 3)
		if err := w.Run(3 * time.Minute); err != nil {
			t.Fatal(err)
		}
		return w.Control().ZoneSummaries(), w.Control().Counts(), w.Summary().Requests
	}
	z1, c1, r1 := run()
	z2, c2, r2 := run()
	if !reflect.DeepEqual(z1, z2) {
		t.Fatalf("zone summaries differ between identical runs:\n%v\n%v", z1, z2)
	}
	if c1 != c2 {
		t.Fatalf("action counts differ: %v vs %v", c1, c2)
	}
	if r1 != r2 {
		t.Fatalf("request totals differ: %d vs %d", r1, r2)
	}
}

// TestOccupiedMatchesScan checks the physics path's occupancy cache against
// a full scan at every tick, through a zone outage with evacuation and
// re-adoption, a node failure and a node recovery: Cluster.Occupied must
// equal the nodes of Nodes() hosting a container, in node order.
func TestOccupiedMatchesScan(t *testing.T) {
	w := zonedOutageWorld(t, 3, 3)
	if err := w.ScheduleNodeFailure(40*time.Second, "node-5"); err != nil {
		t.Fatal(err)
	}
	if err := w.ScheduleNodeRecovery(100*time.Second, cluster.DefaultNodeConfig("node-5")); err != nil {
		t.Fatal(err)
	}
	cl := w.Cluster()
	changes := 0
	var last []*cluster.Node
	for now := w.cfg.Tick; now <= 5*time.Minute; now += w.cfg.Tick {
		if err := w.Run(now); err != nil {
			t.Fatal(err)
		}
		var want []*cluster.Node
		for _, n := range cl.Nodes() {
			if len(n.Containers()) > 0 {
				want = append(want, n)
			}
		}
		got := cl.Occupied()
		if !slices.Equal(got, want) {
			t.Fatalf("t=%v: Occupied lists %d nodes, a scan finds %d", now, len(got), len(want))
		}
		if !slices.Equal(got, last) {
			changes++
			last = append(last[:0], got...)
		}
	}
	ev := w.ZoneEvac()
	if ev.ZonesEvacuated == 0 || ev.ZonesReadopted == 0 {
		t.Errorf("outage never ran the evacuate → readopt round trip: %+v", *ev)
	}
	if changes < 3 {
		t.Errorf("occupancy changed %d times, want the churn to move it", changes)
	}
}
