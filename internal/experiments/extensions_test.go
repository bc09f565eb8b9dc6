package experiments

import (
	"strings"
	"testing"

	"hyscale/internal/core"
	"hyscale/internal/runner"
)

// TestAblationShape also pins the ablation cost table for
// TestExperimentTableGoldens.
func TestAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	r, err := RunAblation(shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	full := r.Row("hybridmem").Summary
	noreclaim := r.Row("hybridmem-noreclaim").Summary
	vertOnly := r.Row("hybridmem-vertical-only").Summary

	// Disabling reclamation leaves resources stranded on idle services:
	// the full algorithm must be clearly faster.
	if full.MeanLatency >= noreclaim.MeanLatency {
		t.Errorf("full (%v) not faster than noreclaim (%v)", full.MeanLatency, noreclaim.MeanLatency)
	}
	// Disabling the horizontal fallback caps a service at one node's
	// spare capacity: bursts overwhelm it.
	if full.MeanLatency >= vertOnly.MeanLatency {
		t.Errorf("full (%v) not faster than vertical-only (%v)", full.MeanLatency, vertOnly.MeanLatency)
	}
	if full.FailedPercent() >= vertOnly.FailedPercent() {
		t.Errorf("full failures (%.2f%%) not below vertical-only (%.2f%%)",
			full.FailedPercent(), vertOnly.FailedPercent())
	}
	tab := CostTableFor(r)
	if !strings.Contains(tab.String(), "total cost") {
		t.Error("cost table missing cost column")
	}
	checkGolden(t, "golden_ablation_table.txt", tab)
}

func TestMonitorPeriodSensitivityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	r, err := RunMonitorPeriodSensitivity(shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	at5 := r.Row("hybridmem@5s").Summary.MeanLatency
	at15 := r.Row("hybridmem@15s").Summary.MeanLatency
	at30 := r.Row("hybridmem@30s").Summary.MeanLatency
	// Slower decisions must monotonically hurt under bursty load.
	if !(at5 < at15 && at15 < at30) {
		t.Errorf("monitor-period degradation not monotone: 5s=%v 15s=%v 30s=%v", at5, at15, at30)
	}
	// The ElasticDocker fairness question: at matched 5s periods the hybrid
	// still beats Kubernetes (its advantage is not just reaction speed).
	k8s := r.Row("kubernetes@5s").Summary.MeanLatency
	if at5 >= k8s {
		t.Errorf("hybridmem@5s (%v) not faster than kubernetes@5s (%v)", at5, k8s)
	}
}

func TestPlacementShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	r, err := RunPlacement(shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"kubernetes", "hybridmem"} {
		spread := r.Row(algo + "/spread")
		pack := r.Row(algo + "/binpack")
		// Bin-packing must use no more machine-hours than spreading. (The
		// latency comparison can go either way: under cluster pressure,
		// packing concentrates reclaimable slack, which sometimes beats
		// spreading's lower per-node contention.)
		if pack.Cost.MachineHours > spread.Cost.MachineHours+1e-9 {
			t.Errorf("%s: binpack machine-hours (%.2f) above spread (%.2f)",
				algo, pack.Cost.MachineHours, spread.Cost.MachineHours)
		}
		if pack.Summary.FailedPercent() > spread.Summary.FailedPercent()+10 {
			t.Errorf("%s: binpack failures (%.2f%%) collapse vs spread (%.2f%%)",
				algo, pack.Summary.FailedPercent(), spread.Summary.FailedPercent())
		}
	}
}

func TestNodeChurnShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	r, err := RunNodeChurn(shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range r.Rows {
		// Node failures kill in-flight requests, so some failures are
		// unavoidable — but the system must keep the vast majority alive.
		if o.Summary.FailedPercent() > 20 {
			t.Errorf("%s: failed %.2f%% under churn, availability collapsed", o.Labels[0], o.Summary.FailedPercent())
		}
		if o.Summary.Completed == 0 {
			t.Errorf("%s: nothing completed", o.Labels[0])
		}
	}
	// The hybrids absorb the lost capacity vertically and keep failures
	// well below the horizontal-only baseline.
	k8s := r.Row("kubernetes").Summary.FailedPercent()
	hyb := r.Row("hybridmem").Summary.FailedPercent()
	if hyb >= k8s {
		t.Errorf("hybridmem churn failures (%.2f%%) not below kubernetes (%.2f%%)", hyb, k8s)
	}
}

func TestNewAlgorithmVariants(t *testing.T) {
	for _, name := range []string{
		"kubernetes", "network", "hybrid", "hybridmem",
		"hybrid-noreclaim", "hybridmem-noreclaim",
		"hybrid-vertical-only", "hybridmem-horizontal-only",
	} {
		a, err := runner.NewAlgorithm(name, core.DefaultConfig())
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if a.Name() != name {
			t.Errorf("Name() = %q, want %q", a.Name(), name)
		}
	}
	for _, bad := range []string{"kubernetes-noreclaim", "network-vertical-only", "hybrid-bogus", "nope"} {
		if _, err := runner.NewAlgorithm(bad, core.DefaultConfig()); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}

func TestStatefulShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	r, err := RunStateful(shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	// With 80s state syncs nobody may collapse: the load is sized within
	// vertical headroom and standing capacity.
	for _, o := range r.Rows {
		if o.Summary.FailedPercent() > 5 {
			t.Errorf("%s: failed %.2f%% on stateful workload", o.Labels[0], o.Summary.FailedPercent())
		}
		if o.Summary.Completed == 0 {
			t.Errorf("%s: nothing completed", o.Labels[0])
		}
	}
}

func TestPredictiveShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	r, err := RunPredictive(shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Prediction is a trade, not a free win: assert sanity, not a winner.
	for _, o := range r.Rows {
		if o.Summary.Completed == 0 {
			t.Errorf("%s: nothing completed", o.Labels[0])
		}
		if o.Summary.FailedPercent() > 25 {
			t.Errorf("%s: failed %.2f%%, collapsed", o.Labels[0], o.Summary.FailedPercent())
		}
	}
	// The documented benefit: extrapolation cuts Kubernetes' burst-onset
	// failures (it provisions for where demand is heading).
	k := r.Row("kubernetes").Summary.FailedPercent()
	kp := r.Row("kubernetes-predictive").Summary.FailedPercent()
	if kp >= k {
		t.Errorf("kubernetes-predictive failures (%.2f%%) not below kubernetes (%.2f%%)", kp, k)
	}
}

func TestLBPolicyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	r, err := RunLBPolicy(shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Kubernetes replicas are homogeneous (fixed 1-CPU requests), so the
	// weighted policy must change nothing for it.
	k := r.Row("kubernetes/least-outstanding").Summary
	kw := r.Row("kubernetes/weighted").Summary
	if k.MeanLatency != kw.MeanLatency || k.FailedPercent() != kw.FailedPercent() {
		t.Errorf("weighted LB changed homogeneous kubernetes: %v/%v vs %v/%v",
			k.MeanLatency, k.FailedPercent(), kw.MeanLatency, kw.FailedPercent())
	}
	// Hybridmem's heterogeneous replicas must all stay functional either way.
	for _, label := range []string{"hybridmem/least-outstanding", "hybridmem/weighted"} {
		if o := r.Row(label); o.Summary.Completed == 0 || o.Summary.FailedPercent() > 25 {
			t.Errorf("%s unhealthy: %v", label, o.Summary)
		}
	}
}
