package experiments

import (
	"fmt"
	"time"

	"hyscale/internal/faults"
	"hyscale/internal/loadgen"
	"hyscale/internal/monitor"
	"hyscale/internal/platform"
	"hyscale/internal/runner"
	"hyscale/internal/workload"
)

// The recovery experiment measures the self-healing control plane end to
// end: two worker machines die mid-run, and the table reports how long each
// algorithm takes to restore its pre-crash provisioned capacity
// (time-to-reconverge from the moment of the first node death) and the
// availability over the run, both as the health probe defines them
// (health.go). Four variants per algorithm isolate each layer's
// contribution:
//
//	no-heal    — legacy behaviour: the dead nodes' replicas are never
//	             re-placed; reconvergence relies on the autoscaler alone.
//	heal       — failure detector + reconciler + checkpointing on.
//	crash-ckpt — additionally the Monitor itself crashes for 30 s right
//	             after declaring the nodes dead; it restores from its last
//	             checkpoint, retry queue and reconcile plan intact.
//	crash-cold — the same crash without checkpointing: the Monitor cold
//	             restarts, rediscovers replicas from the cluster, and the
//	             queued re-placements are simply gone.

// recoveryFailAt places the node deaths at 35% of the horizon, leaving room
// for the post-crash monitor outage and the reconvergence tail.
func recoveryFailAt(opts Options) time.Duration {
	return time.Duration(0.35 * float64(macroDuration(opts)))
}

// Monitor-crash window, relative to the first node death: it opens after
// the detector has declared the nodes dead (≈20 s at default thresholds)
// and the reconcile cooldown has started, and lasts 30 s — long enough that
// checkpointed and cold restarts diverge maximally.
const (
	recoveryCrashOpen  = 22 * time.Second
	recoveryCrashClose = 52 * time.Second
)

// recoveryServices builds a CPU-bound constant-load service set whose
// pre-crash capacity is stable, so the health probe's pre-onset baseline is
// a well-defined reconvergence target.
func recoveryServices(n int) []serviceLoad {
	out := make([]serviceLoad, 0, n)
	for i := 0; i < n; i++ {
		spec := workload.ServiceSpec{
			Name: fmt.Sprintf("svc-%02d", i), Kind: workload.KindCPUBound,
			CPUPerRequest:         0.1,
			CPUOverheadPerRequest: 0.01,
			MemPerRequest:         2,
			BaselineMemMB:         300,
			InitialReplicaCPU:     1,
			InitialReplicaMemMB:   512,
			MinReplicas:           2,
			MaxReplicas:           8,
			Timeout:               30 * time.Second,
		}
		out = append(out, serviceLoad{spec: spec, target: 0.5, pattern: loadgen.Constant{RPS: 12}})
	}
	return out
}

// recoveryColumns report reconvergence and availability as the health probe
// defines them, then the self-healing counters.
var recoveryColumns = []column{
	reconvergeColumn,
	availabilityColumn("avail %"),
	failedColumn,
	cellf("lost", "%d", func(r *Row) uint64 { return r.Recovery.ReplicasLost }),
	cellf("replaced", "%d", func(r *Row) uint64 { return r.Recovery.Replaced }),
	cellf("drained", "%d", func(r *Row) uint64 { return r.Recovery.StaleDrained }),
	cellf("ckpt restores", "%d", func(r *Row) uint64 { return r.Recovery.CheckpointRestores }),
	cellf("cold restarts", "%d", func(r *Row) uint64 { return r.Recovery.ColdRestarts }),
}

// recoveryCell parameterises one recovery run.
type recoveryCell struct {
	algorithm string
	variant   string
	selfHeal  monitor.SelfHealing
	crash     bool
}

// compile turns a cell into a RunSpec: the constant-load service set, two
// node deaths shortly after failAt, the optional monitor-crash window, and
// the health probe hook.
func (c recoveryCell) compile(services []serviceLoad, opts Options) runner.RunSpec {
	failAt := recoveryFailAt(opts)
	cfg := platform.DefaultConfig(opts.Seed)
	cfg.SelfHealing = c.selfHeal
	if c.crash {
		cfg.Faults = faults.Config{
			Seed: opts.Seed + 2000,
			Windows: []faults.Window{{
				Kind: faults.KindMonitorCrash,
				From: failAt + recoveryCrashOpen,
				To:   failAt + recoveryCrashClose,
			}},
		}
	}
	spec := runner.RunSpec{
		Name:      fmt.Sprintf("recovery/%s-%s", c.algorithm, c.variant),
		Label:     fmt.Sprintf("%s %s", c.algorithm, c.variant),
		Seed:      opts.Seed,
		Platform:  cfg,
		Algorithm: c.algorithm,
		Duration:  macroDuration(opts),
		NodeFailures: []runner.NodeFailure{
			{At: failAt, Node: "node-0"},
			{At: failAt + time.Second, Node: "node-1"},
		},
		Hooks: []string{HookHealth},
	}
	for _, s := range services {
		spec.Services = append(spec.Services, runner.ServiceRun{
			Spec: s.spec, Target: s.target, Load: runner.FromPattern(s.pattern),
		})
	}
	return spec
}

// recoveryVariants returns the four self-healing variants every algorithm
// runs under.
func recoveryVariants() []recoveryCell {
	heal := monitor.DefaultSelfHealing()
	cold := monitor.DefaultSelfHealing()
	cold.Checkpoint = false
	return []recoveryCell{
		{variant: "no-heal"},
		{variant: "heal", selfHeal: heal},
		{variant: "crash-ckpt", selfHeal: heal, crash: true},
		{variant: "crash-cold", selfHeal: cold, crash: true},
	}
}

// RunRecovery kills two worker machines mid-run and tabulates, per HyScale
// algorithm and self-healing variant, the time to restore the pre-crash
// capacity, availability, and the recovery counters (hyscale-bench -exp
// recovery).
func RunRecovery(opts Options) (*Grid, error) {
	opts = opts.scaled()
	services := recoveryServices(8)
	names, variants := axisOf(recoveryVariants(), func(c recoveryCell) string { return c.variant })
	g := &Grid{
		Title:   "Recovery: node death, reconciliation and monitor crash-restore",
		Axes:    []string{"algorithm", "variant"},
		columns: recoveryColumns,
	}
	cells := product([]string{"kubernetes", "hybrid", "hybridmem"}, names)
	return g.run(cells, func(l []string) runner.RunSpec {
		c := variants[l[1]]
		c.algorithm = l[0]
		return c.compile(services, opts)
	}, opts)
}
