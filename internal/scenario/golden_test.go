package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyscale/internal/runner"
)

// TestShippedScenarioGoldens runs every shipped scenario end to end and pins
// the measurements its runner.Result carries (summary, actions, recovery,
// cost, connection failures, zone ledgers, cross-zone and evacuation
// counters, cascade and resilience accounting) against committed goldens.
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
		t.Run(name, func(t *testing.T) {
			got := renderScenario(t, path)
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
		})
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
	}{res.Summary, res.Actions, res.Recovery, res.Cost, res.ConnFail,
		res.Zones, res.CrossZone, res.ZoneEvac, res.Cascade, res.Resilience}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}
