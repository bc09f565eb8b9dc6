package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyscale/internal/monitor"
	"hyscale/internal/platform"
	"hyscale/internal/resilience"
	"hyscale/internal/runner"
)

// TestShippedScenarioGoldens runs every shipped scenario end to end and pins
// its measurements against committed goldens: the runner.Result's summary
// and cost, and the world's action, recovery, connection-failure, zone,
// cross-zone, evacuation, cascade and resilience counters.
// Any change to how a scenario is parsed, compiled, validated or built that
// moves a single number fails here.
//
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test ./internal/scenario -run TestShippedScenarioGoldens
func TestShippedScenarioGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every shipped scenario")
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped scenarios found: %v", err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) { checkScenarioGolden(t, name) })
	}
}

// TestShippedScenarioOrdinals reruns the shipped scenarios that lose nodes,
// zones or requests (zone outage, node crash and recovery, chaos, the zoned
// datacenter and the cascade retry storm) with the monitor's ordinal
// self-check on: every snapshot replica and every action the monitor
// resolves by ordinal is re-resolved by name, through a scan of its
// arbiter's cluster view (cluster.FindContainer), and any difference panics.
// The results must still match their goldens.
func TestShippedScenarioOrdinals(t *testing.T) {
	if testing.Short() {
		t.Skip("runs shipped scenarios")
	}
	defer monitor.VerifyOrdinals(monitor.VerifyOrdinals(true))
	for _, name := range []string{"zone-outage", "node-crash-recovery", "mixed-burst-chaos",
		"datacenter-zones", "cascade-retry-storm"} {
		t.Run(name, func(t *testing.T) { checkScenarioGolden(t, name) })
	}
}

// checkScenarioGolden runs the shipped scenario name and compares its
// rendered result with testdata/golden_<name>.json, or rewrites the golden
// when UPDATE_GOLDEN is set.
func checkScenarioGolden(t *testing.T, name string) {
	t.Helper()
	got := renderScenario(t, filepath.Join("..", "..", "scenarios", name+".json"))
	goldenPath := filepath.Join("testdata", "golden_"+name+".json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if string(want) != string(got) {
		t.Fatalf("%s diverged from its golden:\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
	}
}

// renderScenario parses, compiles and runs one scenario file and renders the
// result's measurements as indented JSON.
func renderScenario(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The counters come from the world's struct accessors, in the shape
	// the goldens were written in: the zone blocks are null on a one-zone
	// world and the call-graph blocks null without a call graph.
	w := res.World
	ctl := w.Control()
	var (
		zones     []monitor.ZoneSummary
		crossZone *monitor.CrossZoneCounts
		zoneEvac  *monitor.EvacCounts
		cascade   *platform.CascadeStats
		defenses  *resilience.Counters
	)
	if zones = ctl.ZoneSummaries(); zones != nil {
		cz := ctl.Cross()
		crossZone, zoneEvac = &cz, ctl.Evac()
	}
	if w.HasCallGraph() {
		cs, rc := w.CascadeStats(), w.Resilience().Counters()
		cascade, defenses = &cs, &rc
	}
	out, err := json.MarshalIndent(struct {
		Summary    any `json:"summary"`
		Actions    any `json:"actions"`
		Recovery   any `json:"recovery"`
		Cost       any `json:"cost"`
		ConnFail   any `json:"connFail"`
		Zones      any `json:"zones"`
		CrossZone  any `json:"crossZone"`
		ZoneEvac   any `json:"zoneEvac"`
		Cascade    any `json:"cascade"`
		Resilience any `json:"resilience"`
	}{res.Summary, ctl.Counts(), ctl.Recovery(), res.Cost, w.ConnFailures(),
		zones, crossZone, zoneEvac, cascade, defenses}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}
