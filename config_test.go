package hyscale

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hyscale/internal/runner"
	"hyscale/internal/scenario"
	"hyscale/internal/workload"
)

// TestConfigRejectedAtEveryEntryPoint runs each bad configuration through
// every entry point that accepts one — the scenario parser, the public facade
// and runner.Build — and requires all of them to reject it with the same
// message, up to the entry point's own prefix. The facade entry point is
// NewSimulation, or ExecuteSpecs when the rule needs declared services.
func TestConfigRejectedAtEveryEntryPoint(t *testing.T) {
	zoned := func(sc *scenario.Scenario) { sc.Zones = &scenario.Zones{Count: 2} }
	selfHealing := func(sc *scenario.Scenario) { sc.SelfHealing = &scenario.SelfHealing{Enabled: true} }
	zoneOutage := func(target string) func(*scenario.Scenario) {
		return func(sc *scenario.Scenario) {
			sc.Faults = &scenario.Faults{Windows: []scenario.FaultWindow{{
				Kind: "zone-outage", Target: target,
				From: scenario.Duration(time.Second), To: scenario.Duration(time.Minute),
			}}}
		}
	}
	tests := []struct {
		name     string
		mutate   []func(*scenario.Scenario)
		services bool // the rule is about declared services
		want     string
	}{
		{"negative spillover", []func(*scenario.Scenario){zoned, func(sc *scenario.Scenario) {
			sc.DR = &scenario.DR{SpilloverZones: -1}
		}}, false, "platform: spillover zones must be >= 0, got -1"},
		{"negative headroom", []func(*scenario.Scenario){func(sc *scenario.Scenario) {
			sc.Zones = &scenario.Zones{Count: 2, LeaseHeadroomCPU: -2}
		}}, false, "platform: lease headroom must be >= 0, got -2"},
		{"negative readopt", []func(*scenario.Scenario){zoned, func(sc *scenario.Scenario) {
			sc.DR = &scenario.DR{ReadoptAfter: scenario.Duration(-time.Second)}
		}}, false, "platform: readopt cooldown must be >= 0, got -1s"},
		{"negative zones", []func(*scenario.Scenario){func(sc *scenario.Scenario) {
			sc.Zones = &scenario.Zones{Count: -3}
		}}, false, "platform: zones must be >= 0, got -3"},
		{"evacuate with one zone", []func(*scenario.Scenario){selfHealing, func(sc *scenario.Scenario) {
			sc.Zones = &scenario.Zones{Count: 1}
			sc.DR = &scenario.DR{Evacuate: true}
		}}, false, "platform: zone evacuation requires a zoned control plane (zones >= 2)"},
		{"evacuate without self-healing", []func(*scenario.Scenario){zoned, func(sc *scenario.Scenario) {
			sc.DR = &scenario.DR{Evacuate: true}
		}}, false, "platform: zone evacuation requires self-healing"},
		{"zones exceed nodes", []func(*scenario.Scenario){func(sc *scenario.Scenario) {
			sc.Zones = &scenario.Zones{Count: 5}
		}}, false, "platform: zones (5) exceeds node count (4)"},
		{"zone window on an unzoned plane", []func(*scenario.Scenario){zoneOutage("0")},
			false, "platform: zone-outage fault windows need a zoned control plane (zones >= 2)"},
		{"zone window out of range", []func(*scenario.Scenario){zoned, zoneOutage("2")},
			false, `platform: zone-outage window targets zone "2", want an index in [0,2)`},
		{"unknown algorithm", []func(*scenario.Scenario){func(sc *scenario.Scenario) {
			sc.Algorithm = "bogus"
		}}, false, `runner: unknown algorithm "bogus"`},
		{"manager target names no service", []func(*scenario.Scenario){func(sc *scenario.Scenario) {
			sc.Manager = &scenario.Manager{Services: []scenario.ManagerService{{Service: "ghost"}}}
		}}, true, `runner: manager targets unknown service "ghost"`},
		{"call-graph endpoint names no service", []func(*scenario.Scenario){func(sc *scenario.Scenario) {
			sc.CallGraph = &workload.CallGraph{Edges: []workload.CallEdge{{From: "api", To: "ghost", Calls: 1}}}
		}}, true, `workload: callGraph.edges[0]: unknown service "ghost"`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sc := baseScenario(t)
			for _, m := range tt.mutate {
				m(sc)
			}
			raw, err := json.Marshal(sc)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := sc.Compile()
			if err != nil {
				t.Fatal(err)
			}

			check := func(entry string, err error, prefix string) {
				t.Helper()
				if err == nil {
					t.Errorf("%s accepted the config", entry)
					return
				}
				core, ok := strings.CutPrefix(err.Error(), prefix)
				if !ok || !strings.HasPrefix(core, tt.want) {
					t.Errorf("%s: error %q, want %q followed by %q", entry, err, prefix, tt.want)
				}
			}
			_, err = scenario.Parse(bytes.NewReader(raw))
			check("scenario.Parse", err, "scenario: ")
			_, _, err = runner.Build(spec)
			check("runner.Build", err, spec.Name+": ")
			if tt.services {
				_, _, err = ExecuteSpecs(1, 1, []RunSpec{spec})
				check("ExecuteSpecs", err, spec.Name+": ")
			} else {
				cfg := SimConfig{PlatformConfig: spec.Platform,
					Algorithm: AlgorithmName(spec.Algorithm), Manager: spec.Manager}
				_, err = NewSimulation(cfg)
				check("NewSimulation", err, "hyscale: simulation: ")
			}
		})
	}
}

// baseScenario is a valid four-node, one-service scenario.
func baseScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Parse(strings.NewReader(`{
  "seed": 1, "nodes": 4, "algorithm": "hybridmem", "duration": "90s",
  "services": [{"name": "api", "kind": "cpu", "load": {"type": "constant", "base": 5}}]
}`))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}
