package experiments

import (
	"testing"

	"hyscale/internal/workload"
)

// chaosServices is the Fig. 6b service set at test scale.
func chaosServices(opts Options) []serviceLoad {
	return makeServices(workload.KindCPUBound, 15, HighBurst, opts.Seed)
}

// TestChaosHardeningReducesFailures is the resilience acceptance check: at
// full fault rate, retry/backoff + graceful degradation + LB health checks
// must yield strictly fewer failed requests than the identical fault
// schedule with hardening off.
func TestChaosHardeningReducesFailures(t *testing.T) {
	opts := shapeOpts()
	res, err := chaosGrid("hardening-vs-not", chaosServices(opts), [][]string{
		{"1.0", "hybridmem", "yes"},
		{"1.0", "hybridmem", "no"},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	on := res.Row("1.0", "hybridmem", "yes")
	off := res.Row("1.0", "hybridmem", "no")
	if on == nil || off == nil {
		t.Fatal("missing outcomes")
	}
	if on.Summary.FailedPercent() >= off.Summary.FailedPercent() {
		t.Errorf("hardened failed%% = %.2f, unhardened = %.2f — hardening must strictly reduce failures",
			on.Summary.FailedPercent(), off.Summary.FailedPercent())
	}
	// The hardened run visibly exercises its machinery...
	if on.Actions.Retries == 0 || on.Actions.StaleSnapshots == 0 {
		t.Errorf("hardened run shows no resilience activity: %+v", on.Actions)
	}
	// ...while the unhardened one drops failed actions on the floor.
	if off.Actions.Retries != 0 || off.Actions.StaleSnapshots != 0 {
		t.Errorf("unhardened run used hardening machinery: %+v", off.Actions)
	}
	if off.Actions.AbandonedActions == 0 {
		t.Error("unhardened run abandoned nothing despite injected faults")
	}
}

// TestChaosZeroRateMatchesBaseline: with the fault rate at 0 the chaos
// harness must reproduce the plain Fig. 6b outcome exactly — the injector,
// health checks and health probe must be invisible.
func TestChaosZeroRateMatchesBaseline(t *testing.T) {
	opts := shapeOpts()
	res, err := chaosGrid("zero-rate", chaosServices(opts), [][]string{
		{"0.0", "hybridmem", "yes"},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	base, err := macroGrid("baseline", chaosServices(opts), algorithmRows("hybridmem"), opts)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Row("0.0", "hybridmem", "yes")
	want := base.Row("hybridmem")
	if got.Summary != want.Summary {
		t.Errorf("zero-rate summary diverged from baseline:\n got %+v\nwant %+v",
			got.Summary, want.Summary)
	}
	if got.Actions != want.Actions {
		t.Errorf("zero-rate actions diverged from baseline:\n got %+v\nwant %+v",
			got.Actions, want.Actions)
	}
	if got.Extra[extraAvailability] != 100 {
		t.Errorf("availability = %.2f at zero rate, want 100", got.Extra[extraAvailability])
	}
}

// TestChaosDeterminism: same seed, same table — byte for byte.
func TestChaosDeterminism(t *testing.T) {
	opts := Options{Seed: 5, Scale: 0.05}
	run := func() string {
		res, err := chaosGrid("det", chaosServices(opts), [][]string{
			{"1.0", "kubernetes", "yes"},
			{"0.5", "hybridmem", "yes"},
			{"1.0", "hybridmem", "no"},
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Table().String()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("tables diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestRunChaosShape checks the full sweep's row layout briefly at tiny scale.
func TestRunChaosShape(t *testing.T) {
	res, err := RunChaos(Options{Seed: 1, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	// 3 rates × 3 algorithms hardened + 3 unhardened at rate 1.0.
	if len(res.Rows) != 12 {
		t.Fatalf("outcomes = %d, want 12", len(res.Rows))
	}
	tab := res.Table()
	if len(tab.Rows) != 12 || len(tab.Columns) != 9 {
		t.Errorf("table shape = %dx%d, want 12x9", len(tab.Rows), len(tab.Columns))
	}
	if res.Row("0.5", "hybrid", "yes") == nil || res.Row("1.0", "kubernetes", "no") == nil {
		t.Error("expected cells missing")
	}
}
