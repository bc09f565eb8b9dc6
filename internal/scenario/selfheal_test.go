package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const withSelfHealing = `{
  "seed": 3,
  "nodes": 4,
  "algorithm": "hybridmem",
  "duration": "90s",
  "services": [
    {
      "name": "api", "kind": "cpu",
      "cpuPerRequest": 0.1, "targetUtil": 0.5,
      "load": {"type": "constant", "base": 8}
    }
  ],
  "failures": [{"node": "node-0", "at": "30s"}],
  "faults": {
    "windows": [
      {"kind": "monitor-crash", "from": "45s", "to": "60s"},
      {"kind": "partition", "target": "node-1", "direction": "actions", "from": "10s", "to": "20s"}
    ]
  },
  "selfHealing": {
    "enabled": true,
    "suspectAfter": 3,
    "deadAfter": 5,
    "cooldown": "15s",
    "checkpoint": true,
    "checkpointEvery": "10s"
  }
}`

func TestParseSelfHealingBlock(t *testing.T) {
	sc, err := Parse(strings.NewReader(withSelfHealing))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.SelfHealing.Config()
	if !cfg.Enabled || cfg.SuspectAfter != 3 || cfg.DeadAfter != 5 {
		t.Errorf("self-healing config = %+v", cfg)
	}
	if cfg.Cooldown != 15*time.Second || !cfg.Checkpoint || cfg.CheckpointEvery != 10*time.Second {
		t.Errorf("self-healing config = %+v", cfg)
	}
	fc := sc.Faults.Config(sc.Seed)
	if len(fc.Windows) != 2 {
		t.Fatalf("windows = %d", len(fc.Windows))
	}
	if fc.Windows[1].Direction != "actions" {
		t.Errorf("direction = %q", fc.Windows[1].Direction)
	}
	if err := fc.Validate(); err != nil {
		t.Errorf("valid windows rejected: %v", err)
	}
}

func TestSelfHealingValidation(t *testing.T) {
	bad := strings.Replace(withSelfHealing, `"direction": "actions"`, `"direction": "sideways"`, 1)
	sc, err := Parse(strings.NewReader(bad))
	if err == nil {
		err = sc.Validate()
	}
	if err == nil {
		t.Error("unknown partition direction accepted")
	}
}

func TestNilSelfHealingDisabled(t *testing.T) {
	var s *SelfHealing
	if cfg := s.Config(); cfg.Enabled {
		t.Error("nil selfHealing block enabled the detector")
	}
}

// TestShippedScenarioFilesParse guards the example scenarios in scenarios/
// against schema drift — every shipped file must parse and validate.
func TestShippedScenarioFilesParse(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario files found: %v", err)
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := Parse(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if filepath.Base(path) == "slo-cost-tradeoff.json" {
			if sc.Algorithm != "manager-cost" {
				t.Errorf("%s: algorithm = %q, want manager-cost", path, sc.Algorithm)
			}
			if sc.Manager == nil || len(sc.Manager.Services) == 0 {
				t.Errorf("%s: expected a manager block with per-service targets", path)
			}
			spec, err := sc.Compile()
			if err != nil {
				t.Errorf("%s: compile: %v", path, err)
			} else if spec.Manager == nil {
				t.Errorf("%s: compiled spec lost the manager config", path)
			}
		}
		if filepath.Base(path) == "datacenter-zones.json" {
			if sc.Zones == nil || sc.Zones.Count != 8 {
				t.Errorf("%s: expected a zones block with count 8, got %+v", path, sc.Zones)
			}
			if got := len(sc.ExpandedServices()); got != 500 {
				t.Errorf("%s: expands to %d services, want 500", path, got)
			}
			if sc.Nodes != 1000 {
				t.Errorf("%s: nodes = %d, want 1000", path, sc.Nodes)
			}
			spec, err := sc.Compile()
			if err != nil {
				t.Errorf("%s: compile: %v", path, err)
			} else if spec.Platform.Zones != 8 {
				t.Errorf("%s: compiled Platform.Zones = %d, want 8", path, spec.Platform.Zones)
			}
		}
		if filepath.Base(path) == "zone-outage.json" {
			if sc.Zones == nil || sc.Zones.Count != 4 {
				t.Errorf("%s: expected a zones block with count 4, got %+v", path, sc.Zones)
			}
			if sc.DR == nil || !sc.DR.Evacuate || sc.DR.SpilloverZones != 2 {
				t.Errorf("%s: expected dr block with evacuate + spilloverZones 2, got %+v", path, sc.DR)
			}
			if sc.Faults == nil || len(sc.Faults.Windows) == 0 || sc.Faults.Windows[0].Kind != "zone-outage" {
				t.Errorf("%s: expected a zone-outage fault window", path)
			}
			spec, err := sc.Compile()
			if err != nil {
				t.Errorf("%s: compile: %v", path, err)
			} else {
				if !spec.Platform.Evacuate {
					t.Errorf("%s: compiled spec lost Evacuate", path)
				}
				if spec.Platform.SpilloverZones != 2 {
					t.Errorf("%s: compiled SpilloverZones = %d, want 2", path, spec.Platform.SpilloverZones)
				}
			}
		}
	}
}
