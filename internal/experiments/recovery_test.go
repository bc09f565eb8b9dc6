package experiments

import (
	"strings"
	"testing"

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
			if secs := o.series(platform.SeriesReconverge, ""); secs < 0 || secs > recoveryBoundSeconds {
				t.Errorf("%s/%s: reconverge = %.0fs, want within [0, %ds]",
					algo, variant, secs, recoveryBoundSeconds)
			}
			if dead := o.series("hyscale_selfheal_nodes_dead_total", ""); dead != 2 {
				t.Errorf("%s/%s: declared dead = %.0f, want 2", algo, variant, dead)
			}
			if o.series("hyscale_selfheal_replicas_lost_total", "") == 0 {
				t.Errorf("%s/%s: no replicas recorded lost", algo, variant)
			}
		}

		// Checkpointed restarts keep the reconcile plan; cold restarts lose
		// it (the autoscaler alone recovers the count).
		ckpt, cold := res.Row(algo, "crash-ckpt"), res.Row(algo, "crash-cold")
		restarts := func(r *Row) (float64, float64) {
			return r.series("hyscale_selfheal_checkpoint_restores_total", ""), r.series("hyscale_selfheal_cold_restarts_total", "")
		}
		if c, k := restarts(ckpt); c != 1 || k != 0 {
			t.Errorf("%s/crash-ckpt: checkpoint restores %.0f, cold restarts %.0f", algo, c, k)
		}
		if c, k := restarts(cold); c != 0 || k != 1 {
			t.Errorf("%s/crash-cold: checkpoint restores %.0f, cold restarts %.0f", algo, c, k)
		}
		if ckpt.series("hyscale_selfheal_replicas_replaced_total", "") == 0 {
			t.Errorf("%s/crash-ckpt: checkpointed restart replaced nothing", algo)
		}
		crashes := func(r *Row) float64 { return r.series("hyscale_monitor_crash_periods_total", "") }
		if crashes(ckpt) == 0 || crashes(cold) == 0 {
			t.Errorf("%s: crash variants lost no poll periods (ckpt=%.0f cold=%.0f)",
				algo, crashes(ckpt), crashes(cold))
		}

		// The legacy variant must not touch any self-healing machinery.
		none := res.Row(algo, "no-heal")
		for _, s := range none.Metrics {
			if strings.HasPrefix(s.Name, "hyscale_selfheal_") && s.Value != 0 {
				t.Errorf("%s/no-heal: recovery counter %s = %.0f, want 0", algo, s.Name, s.Value)
			}
		}
		if crashes(none) != 0 {
			t.Errorf("%s/no-heal: monitor crashed %.0f times", algo, crashes(none))
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
