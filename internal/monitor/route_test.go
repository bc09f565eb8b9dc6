package monitor_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/core"
	"hyscale/internal/faults"
	"hyscale/internal/loadgen"
	"hyscale/internal/monitor"
	"hyscale/internal/platform"
	"hyscale/internal/workload"
)

// TestRouteViewMatchesAppendReplicas compares, at every tick, each
// service's route view (minus replicas already StateRemoved) and
// Plane.AppendReplicas with a scan of the arbiters' service lists, which
// never reads the plane's service table. A zoned world drives every
// placement change the table must follow: a node failure and a replacement
// machine, a zone outage with evacuation (with and without spillover),
// readoption once the zone heals, and a monitor crash restored from its
// checkpoint. A table entry left pointing at the wrong arbiter, state or
// shard makes them diverge.
func TestRouteViewMatchesAppendReplicas(t *testing.T) {
	for _, spill := range []int{1, 3} {
		cfg := platform.DefaultConfig(5)
		cfg.Nodes = 9
		cfg.Zones = 3
		cfg.SelfHealing = monitor.DefaultSelfHealing()
		cfg.Evacuate = true
		cfg.SpilloverZones = spill
		cfg.Faults = faults.Config{Seed: 5, Windows: []faults.Window{
			{Kind: faults.KindZoneOutage, Target: "0", From: 60 * time.Second, To: 150 * time.Second},
			{Kind: faults.KindMonitorCrash, From: 240 * time.Second, To: 255 * time.Second},
		}}
		w, err := platform.New(cfg, core.NewHyScaleCPUMem(core.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
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
			names = append(names, spec.Name)
		}
		if err := w.ScheduleNodeFailure(40*time.Second, "node-4"); err != nil {
			t.Fatal(err)
		}
		if err := w.ScheduleNodeRecovery(100*time.Second, cluster.DefaultNodeConfig("node-99")); err != nil {
			t.Fatal(err)
		}

		ctl := w.Control()
		var scratch, appended, live []*container.Container
		for now := cfg.Tick; now <= 320*time.Second; now += cfg.Tick {
			if err := w.Run(now); err != nil {
				t.Fatal(err)
			}
			for ord, name := range names {
				want := monitor.ScanReplicas(ctl, name)
				got := ctl.RouteView(ord, &scratch)
				live = live[:0]
				for _, c := range got {
					if c.State != container.StateRemoved {
						live = append(live, c)
					}
				}
				if !slices.Equal(live, want) {
					t.Fatalf("spill %d, %v %s: route view %v, arbiter scan %v", spill, now, name, ids(got), ids(want))
				}
				if appended = ctl.AppendReplicas(appended[:0], ord); !slices.Equal(appended, want) {
					t.Fatalf("spill %d, %v %s: AppendReplicas %v, arbiter scan %v", spill, now, name, ids(appended), ids(want))
				}
			}
		}
		ev, rec := w.ZoneEvac(), ctl.Recovery()
		if ev.ServicesEvacuated == 0 || ev.ServicesReadopted == 0 || (spill > 1) != (ev.SpilloverPlacements > 0) {
			t.Errorf("spill %d: scenario missed an evacuation stage: %+v", spill, *ev)
		}
		if rec.CheckpointRestores == 0 || rec.DeclaredDead == 0 {
			t.Errorf("spill %d: scenario missed a restore or a dead node: %+v", spill, rec)
		}
	}
}

func ids(cs []*container.Container) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.ID + "/" + c.State.String()
	}
	return out
}
