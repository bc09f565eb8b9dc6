package experiments

import (
	"strings"
	"testing"
	"time"
)

// The experiment tests assert the SHAPE of each paper artefact — orderings,
// inversions, crossover points — at reduced scale (0.2 = 12-minute macro
// runs), not the absolute numbers.

func shapeOpts() Options { return Options{Seed: 1, Scale: 0.2} }

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	s := tab.String()
	if !strings.Contains(s, "T\n") || !strings.Contains(s, "a") || !strings.Contains(s, "--") {
		t.Errorf("String() = %q", s)
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| a | bb |") || !strings.Contains(md, "| 1 | 2 |") {
		t.Errorf("Markdown() = %q", md)
	}
}

func TestOptionsScaled(t *testing.T) {
	o := Options{Seed: 1, Scale: 0}.scaled()
	if o.Scale != 1 {
		t.Errorf("zero scale not defaulted: %v", o.Scale)
	}
}

func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	r, err := RunFig2(shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	// §III-A: the vertical scenario pays the co-location contention over
	// the solo baseline — the paper measured 17 %.
	oh := ContentionOverheadPercent(r)
	if oh < 8 || oh > 30 {
		t.Errorf("contention overhead = %.1f%%, want ~17%%", oh)
	}
	// Horizontal response time rises monotonically with replica count and
	// 1 replica ≈ vertical.
	replicas := microReplicas()
	horizontal := make([]time.Duration, len(replicas))
	for i, n := range replicas {
		row := r.Row(horizontalStress, n)
		if row == nil {
			t.Fatalf("no horizontal row at %s replicas", n)
		}
		horizontal[i] = row.Summary.MeanLatency
	}
	for i := 1; i < len(horizontal); i++ {
		if horizontal[i] <= horizontal[i-1] {
			t.Errorf("horizontal RT not increasing at %s replicas: %v", replicas[i], horizontal)
		}
	}
	vertical := r.Row(fig2Vertical, "1").Summary.MeanLatency
	if d := horizontal[0] - vertical; d < -50*time.Millisecond || d > 50*time.Millisecond {
		t.Errorf("1-replica horizontal (%v) should equal vertical (%v)", horizontal[0], vertical)
	}
	tab := r.Table()
	if !strings.Contains(tab.String(), "Figure 2") {
		t.Error("table title missing")
	}
	if last := tab.Rows[len(tab.Rows)-1]; last[0] != "contention overhead" {
		t.Errorf("last row = %q, want the contention overhead", last)
	}
}

func TestMemScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	r, err := RunMemScaling(shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("scenarios = %d, want 3", len(r.Rows))
	}
	mean := func(scenario string) time.Duration { return r.Row(scenario).Summary.MeanLatency }
	// §III-B: vertical ≈ horizontal until the split forces swapping; the
	// 4x128MB split swaps (each replica pays the baseline again).
	if mean("2x256MB") > 3*mean("1x512MB") {
		t.Errorf("2x256 (%v) should be near 1x512 (%v)", mean("2x256MB"), mean("1x512MB"))
	}
	if mean("4x128MB") < 3*mean("1x512MB") {
		t.Errorf("4x128 (%v) should be drastically worse than 1x512 (%v) — swap cliff", mean("4x128MB"), mean("1x512MB"))
	}
}

func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	r, err := RunFig3(shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	horizontal := func(replicas string) time.Duration {
		return r.Row(horizontalStress, replicas).Summary.MeanLatency
	}
	// §III-C: large decrease in execution time with more replicas,
	// tapering off at around 8.
	if horizontal("2") >= horizontal("1") {
		t.Errorf("2 replicas (%v) not faster than 1 (%v)", horizontal("2"), horizontal("1"))
	}
	gainEarly := float64(horizontal("1")) / float64(horizontal("4"))
	gainLate := float64(horizontal("8")) / float64(horizontal("16"))
	if gainEarly < 1.3 {
		t.Errorf("early horizontal gain = %.2fx, want > 1.3x", gainEarly)
	}
	if gainLate > 1.15 {
		t.Errorf("late gain 8->16 = %.2fx, want taper (~1x)", gainLate)
	}
	// Vertical (re-splitting tc on one machine) equals 1-replica horizontal.
	if vertical := r.Row(fig3Vertical, "1").Summary.MeanLatency; vertical != horizontal("1") {
		t.Errorf("vertical %v != 1-replica %v", vertical, horizontal("1"))
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	for _, shape := range []LoadShape{LowBurst, HighBurst} {
		r, err := RunFig6(shape, shapeOpts())
		if err != nil {
			t.Fatal(err)
		}
		// HYSCALE beats Kubernetes on CPU-bound load (paper: 1.49x/1.43x).
		for _, hy := range []string{"hybrid", "hybridmem"} {
			if sp := r.Speedup("kubernetes", hy); sp < 1.1 {
				t.Errorf("%v: %s speedup over kubernetes = %.2fx, want > 1.1x", shape, hy, sp)
			}
		}
		// HYSCALE uses vertical scaling; Kubernetes never does.
		vertical := func(algo string) float64 {
			return r.Row(algo).series("hyscale_scaling_actions_total", `kind="vertical"`)
		}
		if vertical("kubernetes") != 0 {
			t.Error("kubernetes issued vertical ops")
		}
		if vertical("hybrid") == 0 {
			t.Error("hybrid issued no vertical ops")
		}
	}
}

// TestFig6FailureOrdering also pins the Fig. 6b table for
// TestExperimentTableGoldens.
func TestFig6FailureOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	r, err := RunFig6(HighBurst, shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_fig6b_table.txt", r.Table())
	k := r.Row("kubernetes").Summary.FailedPercent()
	h := r.Row("hybridmem").Summary.FailedPercent()
	// Paper: up to 10x fewer failed requests for HYSCALE under bursty load.
	// The exact ratio depends on the saturation regime; require a clear
	// ordering with margin.
	if k < 1.3*h {
		t.Errorf("kubernetes failures (%.2f%%) not clearly above hybridmem (%.2f%%)", k, h)
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	for _, shape := range []LoadShape{LowBurst, HighBurst} {
		r, err := RunFig7(shape, shapeOpts())
		if err != nil {
			t.Fatal(err)
		}
		mem := r.Row("hybridmem").Summary
		k8s := r.Row("kubernetes").Summary
		hyb := r.Row("hybrid").Summary
		// HYSCALE_CPU+Mem dominates mixed workloads (paper Fig. 7).
		if mem.MeanLatency >= k8s.MeanLatency || mem.MeanLatency >= hyb.MeanLatency {
			t.Errorf("%v: hybridmem (%v) not fastest (k8s %v, hybrid %v)",
				shape, mem.MeanLatency, k8s.MeanLatency, hyb.MeanLatency)
		}
		if mem.FailedPercent() >= k8s.FailedPercent() || mem.FailedPercent() >= hyb.FailedPercent() {
			t.Errorf("%v: hybridmem failures not lowest", shape)
		}
		// The paper's inversion: memory-blind HYSCALE_CPU fails more than
		// Kubernetes, whose horizontal scale-outs add memory by accident.
		if hyb.FailedPercent() <= k8s.FailedPercent() {
			t.Errorf("%v: expected hybrid failures (%.2f%%) above kubernetes (%.2f%%)",
				shape, hyb.FailedPercent(), k8s.FailedPercent())
		}
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	// Low burst: everyone competitive (within 2x of the network scaler).
	r, err := RunFig8(LowBurst, shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	net := r.Row("network").Summary.MeanLatency
	for _, other := range []string{"kubernetes", "hybrid", "hybridmem"} {
		if m := r.Row(other).Summary.MeanLatency; float64(m) > 2*float64(net) {
			t.Errorf("low-burst: %s (%v) not competitive with network (%v)", other, m, net)
		}
	}

	// High burst: dedicated network scaling clearly wins (paper: response
	// times dropping by up to 59.22%, 1.69x speedup).
	r, err = RunFig8(HighBurst, shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	if sp := r.Speedup("kubernetes", "network"); sp < 1.3 {
		t.Errorf("high-burst: network speedup over kubernetes = %.2fx, want > 1.3x", sp)
	}
	netFail := r.Row("network").Summary.FailedPercent()
	for _, other := range []string{"kubernetes", "hybrid", "hybridmem"} {
		if f := r.Row(other).Summary.FailedPercent(); f < netFail {
			t.Errorf("high-burst: %s failures (%.2f%%) below network (%.2f%%)", other, f, netFail)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := RunFig9(nil, shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The averaged series the table samples: every point, not only the
	// plotted ones, must be a percentage.
	m := rndTrace(nil, shapeOpts().scaled()).Mean()
	if m.Len() == 0 {
		t.Fatal("empty mean series")
	}
	var minC, maxC float64
	for i, v := range m.CPUPercent {
		if v < 0 || v > 100 {
			t.Fatal("CPU% out of range")
		}
		if i == 0 || v < minC {
			minC = v
		}
		if i == 0 || v > maxC {
			maxC = v
		}
	}
	// The trace must be wave-like, not flat (Fig. 9's visible bursts).
	if maxC/minC < 1.15 {
		t.Errorf("trace too flat: min=%.1f max=%.1f", minC, maxC)
	}
	if len(r.Rows) != 0 {
		t.Errorf("fig9 ran %d simulations, want none", len(r.Rows))
	}
	tab := r.Table()
	if len(tab.Rows) == 0 {
		t.Error("empty table")
	}
	if !strings.Contains(tab.String(), "Figure 9") {
		t.Error("table title missing")
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	r, err := RunFig10(nil, shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	mem := r.Row("hybridmem").Summary
	k8s := r.Row("kubernetes").Summary
	hyb := r.Row("hybrid").Summary
	// Paper Fig. 10: HYSCALE_CPU+Mem performs best; Kubernetes outperforms
	// HYSCALE_CPU (fewer timed-out requests via accidental memory).
	if mem.MeanLatency >= k8s.MeanLatency || mem.FailedPercent() >= k8s.FailedPercent() {
		t.Error("hybridmem not best on Bitbrains replay")
	}
	if hyb.FailedPercent() <= k8s.FailedPercent() {
		t.Errorf("expected kubernetes (%.2f%%) to beat hybrid (%.2f%%) on failures",
			k8s.FailedPercent(), hyb.FailedPercent())
	}
}

func TestRunMacroUnknownAlgorithm(t *testing.T) {
	if _, err := macroGrid("x", macroColumns, nil, algorithmRows("nope"), Options{Seed: 1, Scale: 0.01}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestLoadShapeString(t *testing.T) {
	if LowBurst.String() != "low-burst" || HighBurst.String() != "high-burst" {
		t.Error("shape strings wrong")
	}
}
