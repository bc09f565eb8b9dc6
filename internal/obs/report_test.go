package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hyscale/internal/metrics"
	"hyscale/internal/resources"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureJournal builds a fully deterministic journal exercising every
// outcome, both decision kinds with targets, and a service that collapses —
// the shapes the renderer must chart.
func fixtureJournal() *Journal {
	j := NewJournal()
	obs1 := ServiceObserved{CPU: 3.2, MemMB: 512, RequestedCPU: 1, Replicas: 1}
	j.Decision(Decision{At: 5 * time.Second, Service: "api", Kind: KindScaleOut,
		Container: "api-1", Node: "node-3",
		Alloc: resources.Vector{CPU: 2, MemMB: 768}, Observed: obs1, Outcome: OutcomeApplied})
	j.Decision(Decision{At: 10 * time.Second, Service: "api", Kind: KindVertical,
		Container: "api-0", Node: "node-1",
		Alloc: resources.Vector{CPU: 3, MemMB: 768}, Observed: obs1, Outcome: OutcomeRejected})
	j.Decision(Decision{At: 10 * time.Second, Service: "web", Kind: KindScaleOut,
		Node:     "node-2",
		Alloc:    resources.Vector{CPU: 1, MemMB: 512},
		Observed: ServiceObserved{CPU: 1.9, MemMB: 300, RequestedCPU: 2, Replicas: 2},
		Outcome:  OutcomeRequeued})
	j.Decision(Decision{At: 15 * time.Second, Service: "web", Kind: KindScaleOut,
		Node:     "node-2",
		Alloc:    resources.Vector{CPU: 1, MemMB: 512},
		Observed: ServiceObserved{CPU: 1.9, MemMB: 300, RequestedCPU: 2, Replicas: 2},
		Attempt:  1, Outcome: OutcomeAbandoned})
	j.Decision(Decision{At: 20 * time.Second, Service: "api", Kind: KindScaleIn,
		Container: "api-1", Node: "node-3", Observed: obs1, Outcome: OutcomeMoot})

	// api stays healthy; web's failure rate climbs then collapses.
	var webFailed, webDone, apiDone uint64
	var apiLat, webLat time.Duration
	for i := 1; i <= 12; i++ {
		at := time.Duration(i) * 5 * time.Second
		apiDone += 100
		apiLat += 100 * 150 * time.Millisecond
		j.Sample(at, "api", 1+i%3, float64(1+i%3), 0.8*float64(1+i%3), 0,
			apiDone, 0, apiLat)
		done := uint64(80)
		failed := uint64(0)
		if i > 6 {
			failed = uint64(20 * (i - 6)) // collapse after t=30s
			done = 80 - failed/2
		}
		webDone += done
		webFailed += failed
		webLat += time.Duration(done) * 400 * time.Millisecond
		j.Sample(at, "web", 2, 2, 1.5, 12.5, webDone, webFailed, webLat)
	}
	return j
}

func fixtureRuns() []RunReport {
	j := fixtureJournal()
	return []RunReport{{
		Name: "Fixture 1/hybrid", Label: "hybrid", Algorithm: "hybrid",
		Seed: 42, Duration: time.Minute,
		Summary: metrics.Summary{
			Requests: 2160, Completed: 2040, ConnectionFailures: 120,
			MeanLatency: 260 * time.Millisecond, P95Latency: 610 * time.Millisecond,
		},
		Journal: j,
	}, {
		Name: "Fixture 2/empty", Algorithm: "kubernetes",
		Seed: 7, Duration: time.Minute,
		Summary: metrics.Summary{Requests: 100, Completed: 100,
			MeanLatency: 90 * time.Millisecond, P95Latency: 120 * time.Millisecond},
		Journal: NewJournal(),
	}}
}

// TestRenderReportGolden pins the renderer's exact output. Regenerate with
//
//	go test ./internal/obs -run RenderReportGolden -update
func TestRenderReportGolden(t *testing.T) {
	got := RenderReport("hyscale-bench -exp fixture -seed 1 -report out", fixtureRuns())
	golden := filepath.Join("testdata", "report.golden.md")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Fatalf("rendered report drifted from %s (run with -update to regenerate)\n--- got ---\n%s", golden, got)
	}
}

func TestRenderReportSections(t *testing.T) {
	runs := fixtureRuns()
	runs[0].Metrics = sampleSeries
	out := RenderReport("cmd", runs)
	for _, want := range []string{
		"## Run index",
		`control plane: a_total 3 · b_total kind="y" 2 · f zone="0" 1.5, zone="1" 2`,
		"### Cluster time series",
		"### Per-service failure-rate trajectories (worst services)",
		"### Decision timeline",
		"| web |", // the collapsing service must appear in the trajectories
		"applied 1 · requeued 1 · abandoned 1 · rejected 1 · moot 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// The empty journal's run renders without charts but with its summary.
	if !strings.Contains(out, "## Fixture 2/empty") {
		t.Error("report missing the empty run's section")
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil, 10); got != "" {
		t.Errorf("empty input: %q", got)
	}
	if got := Sparkline([]float64{1, 1, 1}, 10); got != "▁▁▁" {
		t.Errorf("flat series: %q", got)
	}
	got := Sparkline([]float64{0, 7}, 10)
	if got != "▁█" {
		t.Errorf("min/max: %q", got)
	}
	// Longer than width downsamples to exactly width runes.
	long := make([]float64, 100)
	for i := range long {
		long[i] = float64(i)
	}
	if n := len([]rune(Sparkline(long, 48))); n != 48 {
		t.Errorf("downsampled width = %d, want 48", n)
	}
}

func TestSlug(t *testing.T) {
	for in, want := range map[string]string{
		"Figure 6a: CPU-bound, low-burst/kubernetes": "figure-6a-cpu-bound-low-burst-kubernetes",
		"fig2/baseline": "fig2-baseline",
		"---":           "",
	} {
		if got := Slug(in); got != want {
			t.Errorf("Slug(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFmtF(t *testing.T) {
	for in, want := range map[float64]string{
		0:       "0",
		1.5:     "1.5",
		2.0004:  "2",
		3.14159: "3.142",
		100:     "100",
	} {
		if got := fmtF(in); got != want {
			t.Errorf("fmtF(%v) = %q, want %q", in, got, want)
		}
	}
}

// TestWriteReportDir exercises the full artifact path including the
// parse-back validation.
func TestWriteReportDir(t *testing.T) {
	dir := t.TempDir()
	if err := WriteReportDir(dir, "cmd", fixtureRuns()); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{
		filepath.Join(dir, ReportFile),
		filepath.Join(dir, DecisionsDir, "fixture-1-hybrid.jsonl"),
		filepath.Join(dir, SeriesDir, "fixture-1-hybrid.csv"),
		filepath.Join(dir, DecisionsDir, "fixture-2-empty.jsonl"),
	} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("missing artifact: %v", err)
		}
	}
	if err := ValidateReportDir(dir); err != nil {
		t.Errorf("ValidateReportDir: %v", err)
	}
}

// TestWriteReportDirDuplicateNames checks duplicate run names get distinct
// artifact files.
func TestWriteReportDirDuplicateNames(t *testing.T) {
	runs := []RunReport{
		{Name: "same", Journal: NewJournal()},
		{Name: "same", Journal: NewJournal()},
	}
	runs[0].Journal.Decision(Decision{At: time.Second, Service: "a", Kind: KindScaleOut, Outcome: OutcomeApplied})
	runs[1].Journal.Decision(Decision{At: time.Second, Service: "b", Kind: KindScaleIn, Outcome: OutcomeApplied})
	dir := t.TempDir()
	if err := WriteReportDir(dir, "cmd", runs); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"same.jsonl", "same-2.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, DecisionsDir, p)); err != nil {
			t.Errorf("missing %s: %v", p, err)
		}
	}
}
