package experiments

import (
	"strings"
	"testing"

	"hyscale/internal/monitor"
	"hyscale/internal/platform"
)

// recoveryBoundSeconds is the reconvergence acceptance bound: 20 default
// monitor periods (5s each) after the first node death.
const recoveryBoundSeconds = 20 * 5

// TestRecoveryReconvergesWithinBound is the self-healing acceptance check:
// every algorithm restores the pre-crash replica count within a bounded
// number of monitor periods after the node deaths, both with and without a
// monitor crash in between.
func TestRecoveryReconvergesWithinBound(t *testing.T) {
	res, err := RunRecovery(Options{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("outcomes = %d, want 3 algorithms x 4 variants", len(res.Rows))
	}
	for _, algo := range []string{"kubernetes", "hybrid", "hybridmem"} {
		for _, variant := range []string{"heal", "crash-ckpt", "crash-cold"} {
			o := res.Row(algo, variant)
			if o == nil {
				t.Fatalf("missing outcome %s/%s", algo, variant)
			}
			if secs := o.health(platform.SeriesReconverge); secs < 0 || secs > recoveryBoundSeconds {
				t.Errorf("%s/%s: reconverge = %.0fs, want within [0, %ds]",
					algo, variant, secs, recoveryBoundSeconds)
			}
			if o.Recovery.DeclaredDead != 2 {
				t.Errorf("%s/%s: declared dead = %d, want 2", algo, variant, o.Recovery.DeclaredDead)
			}
			if o.Recovery.ReplicasLost == 0 {
				t.Errorf("%s/%s: no replicas recorded lost", algo, variant)
			}
		}

		// Checkpointed restarts keep the reconcile plan; cold restarts lose
		// it (the autoscaler alone recovers the count).
		ckpt, cold := res.Row(algo, "crash-ckpt"), res.Row(algo, "crash-cold")
		if ckpt.Recovery.CheckpointRestores != 1 || ckpt.Recovery.ColdRestarts != 0 {
			t.Errorf("%s/crash-ckpt: restarts = %+v", algo, ckpt.Recovery)
		}
		if cold.Recovery.ColdRestarts != 1 || cold.Recovery.CheckpointRestores != 0 {
			t.Errorf("%s/crash-cold: restarts = %+v", algo, cold.Recovery)
		}
		if ckpt.Recovery.Replaced == 0 {
			t.Errorf("%s/crash-ckpt: checkpointed restart replaced nothing", algo)
		}
		if ckpt.MonitorCrashes == 0 || cold.MonitorCrashes == 0 {
			t.Errorf("%s: crash variants lost no poll periods (ckpt=%d cold=%d)",
				algo, ckpt.MonitorCrashes, cold.MonitorCrashes)
		}

		// The legacy variant must not touch any self-healing machinery.
		none := res.Row(algo, "no-heal")
		if none.Recovery != (monitor.RecoveryCounts{}) {
			t.Errorf("%s/no-heal: recovery counters non-zero: %+v", algo, none.Recovery)
		}
		if none.MonitorCrashes != 0 {
			t.Errorf("%s/no-heal: monitor crashed %d times", algo, none.MonitorCrashes)
		}
	}
}

// TestRecoveryParallelInvariance: the rendered table must be byte-identical
// for any worker count.
func TestRecoveryParallelInvariance(t *testing.T) {
	render := func(parallel int) string {
		res, err := RunRecovery(Options{Seed: 1, Scale: 0.05, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return res.Table().String()
	}
	base := render(1)
	for _, p := range []int{2, 4} {
		if got := render(p); got != base {
			t.Errorf("-parallel %d diverged:\n%s\nvs\n%s", p, got, base)
		}
	}
	if !strings.Contains(base, "crash-ckpt") || !strings.Contains(base, "cold restarts") {
		t.Errorf("table missing expected rows/columns:\n%s", base)
	}
}
