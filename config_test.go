package hyscale

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/runner"
	"hyscale/internal/scalermgr"
	"hyscale/internal/scenario"
	"hyscale/internal/workload"
)

// TestConfigRejectedAtEveryEntryPoint runs each bad configuration through
// every entry point that accepts one — the scenario parser, the public facade
// and runner.Build — and requires all of them to reject it with the same
// message, up to the entry point's own prefix. The facade entry point is
// NewSimulation, or ExecuteSpecs when the rule reads more than the platform:
// the declared services or the churn schedule.
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
	failure := func(node string, at time.Duration) func(*scenario.Scenario) {
		return func(sc *scenario.Scenario) {
			sc.Failures = []scenario.NodeFailure{{Node: node, At: scenario.Duration(at)}}
		}
	}
	load := func(l scenario.Load) func(*scenario.Scenario) {
		return func(sc *scenario.Scenario) { sc.Services[0].Load = l }
	}
	const minute = scenario.Duration(time.Minute)
	tests := []struct {
		name   string
		mutate []func(*scenario.Scenario)
		spec   bool // the rule reads more than the platform
		want   string
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
		{"negative suspectAfter", []func(*scenario.Scenario){func(sc *scenario.Scenario) {
			sc.SelfHealing = &scenario.SelfHealing{Enabled: true, SuspectAfter: -1}
		}}, false, "monitor: selfHealing.suspectAfter must be >= 0, got -1"},
		{"negative deadAfter", []func(*scenario.Scenario){func(sc *scenario.Scenario) {
			sc.SelfHealing = &scenario.SelfHealing{Enabled: true, DeadAfter: -4}
		}}, false, "monitor: selfHealing.deadAfter must be >= 0, got -4"},
		{"negative self-healing cooldown", []func(*scenario.Scenario){func(sc *scenario.Scenario) {
			sc.SelfHealing = &scenario.SelfHealing{Enabled: true, Cooldown: -time.Second}
		}}, false, "monitor: selfHealing.cooldown must be >= 0, got -1s"},
		{"negative checkpointEvery", []func(*scenario.Scenario){func(sc *scenario.Scenario) {
			sc.SelfHealing = &scenario.SelfHealing{Enabled: true, Checkpoint: true, CheckpointEvery: -time.Minute}
		}}, false, "monitor: selfHealing.checkpointEvery must be >= 0, got -1m0s"},
		{"negative manager SLO target", []func(*scenario.Scenario){func(sc *scenario.Scenario) {
			sc.Manager = &scalermgr.Config{SLOTargetMs: -250}
		}}, true, "scalermgr: negative SLO target -250 ms"},
		{"manager target names no service", []func(*scenario.Scenario){func(sc *scenario.Scenario) {
			sc.Manager = &scalermgr.Config{Services: []scalermgr.ServiceTargets{{Service: "ghost"}}}
		}}, true, `runner: manager targets unknown service "ghost"`},
		{"call-graph endpoint names no service", []func(*scenario.Scenario){func(sc *scenario.Scenario) {
			sc.CallGraph = &workload.CallGraph{Edges: []workload.CallEdge{{From: "api", To: "ghost", Calls: 1}}}
		}}, true, `workload: callGraph.edges[0]: unknown service "ghost"`},
		{"failure names no node", []func(*scenario.Scenario){failure("node-4", time.Minute)},
			true, `runner: node failure names unknown node "node-4"`},
		{"negative failure time", []func(*scenario.Scenario){failure("node-0", -time.Second)},
			true, `runner: node failure "node-0" at -1s, want >= 0`},
		{"negative background CPU", []func(*scenario.Scenario){func(sc *scenario.Scenario) {
			sc.Services[0].BackgroundCPU = -2
		}}, true, `runner: service "api": workload: service "api" has negative background CPU -2`},
		{"negative load base", []func(*scenario.Scenario){load(scenario.Load{Type: "constant", Base: -6})},
			true, `runner: service "api": runner: load base must be >= 0, got -6`},
		{"negative load peak", []func(*scenario.Scenario){load(scenario.Load{Type: "burst", Base: 6, Peak: -18, Period: 6 * minute, BurstLen: minute})},
			true, `runner: service "api": runner: load peak must be >= 0, got -18`},
		{"negative load period", []func(*scenario.Scenario){load(scenario.Load{Type: "wave", Base: 6, Amplitude: 0.3, Period: -6 * minute})},
			true, `runner: service "api": runner: load period must be >= 0, got -6m0s`},
		{"negative burst length", []func(*scenario.Scenario){load(scenario.Load{Type: "burst", Base: 6, Peak: 18, Period: 6 * minute, BurstLen: -minute})},
			true, `runner: service "api": runner: load burstLen must be >= 0, got -1m0s`},
		{"negative ramp-up", []func(*scenario.Scenario){load(scenario.Load{Type: "ramp", Base: 6, Peak: 18, RampUp: -minute})},
			true, `runner: service "api": runner: load rampUp must be >= 0, got -1m0s`},
		{"negative hold", []func(*scenario.Scenario){load(scenario.Load{Type: "flashcrowd", Base: 6, Peak: 18, RampUp: minute, Hold: -minute})},
			true, `runner: service "api": runner: load hold must be >= 0, got -1m0s`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sc := baseScenario(t)
			for _, m := range tt.mutate {
				m(sc)
			}
			raw := scenarioJSON(t, sc)
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
			if tt.spec {
				_, err = ExecuteSpecs(1, 1, []RunSpec{spec})
				check("ExecuteSpecs", err, spec.Name+": ")
			} else {
				cfg := SimConfig{PlatformConfig: spec.Platform,
					Algorithm: AlgorithmName(spec.Algorithm), Manager: spec.Manager}
				_, err = NewSimulation(cfg)
				check("NewSimulation", err, "hyscale: simulation: ")
			}
		})
	}
	t.Run("compiled spec", specRejectedAtEveryEntryPoint)
}

// scenarioJSON encodes sc as a scenario file spells it. json.Marshal writes
// a time.Duration as integer nanoseconds, which Parse rejects, so each one
// is rewritten as a duration string.
func scenarioJSON(t *testing.T, sc *scenario.Scenario) []byte {
	t.Helper()
	raw, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	durationStrings(doc, reflect.TypeOf(sc).Elem())
	if raw, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	return raw
}

// durationStrings rewrites every time.Duration in the generically decoded
// value v of type t as a duration string.
func durationStrings(v any, t reflect.Type) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch t.Kind() {
	case reflect.Slice:
		items, _ := v.([]any)
		for _, item := range items {
			durationStrings(item, t.Elem())
		}
	case reflect.Struct:
		m, _ := v.(map[string]any)
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if ns, ok := m[key].(float64); ok && f.Type == reflect.TypeOf(time.Duration(0)) {
				m[key] = time.Duration(ns).String()
			} else if m[key] != nil {
				durationStrings(m[key], f.Type)
			}
		}
	}
}

// specRejectedAtEveryEntryPoint covers the rules the scenario form cannot
// reach: JSON has no NaN or infinity, and a scenario declares no recovery
// machine. Each bad spec is compiled from the valid base scenario, mutated,
// and must be rejected with the same message by runner.Build and
// ExecuteSpecs.
func specRejectedAtEveryEntryPoint(t *testing.T) {
	service := func(mutate func(*workload.ServiceSpec)) func(*RunSpec) {
		return func(spec *RunSpec) { mutate(&spec.Services[0].Spec) }
	}
	load := func(mutate func(*runner.LoadSpec)) func(*RunSpec) {
		return func(spec *RunSpec) { mutate(&spec.Services[0].Load) }
	}
	recovery := func(mutate func(*cluster.NodeConfig)) func(*RunSpec) {
		return func(spec *RunSpec) {
			cfg := cluster.DefaultNodeConfig("spare")
			mutate(&cfg)
			spec.NodeRecoveries = []runner.NodeRecovery{{At: time.Minute, Config: cfg}}
		}
	}
	tests := []struct {
		name   string
		mutate func(*RunSpec)
		want   string
	}{
		{"NaN background CPU", service(func(s *workload.ServiceSpec) { s.BackgroundCPU = math.NaN() }),
			`runner: service "api": workload: service "api" has non-finite BackgroundCPU NaN`},
		{"NaN CPU per request", service(func(s *workload.ServiceSpec) { s.CPUPerRequest = math.NaN() }),
			`runner: service "api": workload: service "api" has non-finite CPUPerRequest NaN`},
		{"NaN initial CPU", service(func(s *workload.ServiceSpec) { s.InitialReplicaCPU = math.NaN() }),
			`runner: service "api": workload: service "api" has non-finite InitialReplicaCPU NaN`},
		{"infinite initial memory", service(func(s *workload.ServiceSpec) { s.InitialReplicaMemMB = math.Inf(1) }),
			`runner: service "api": workload: service "api" has non-finite InitialReplicaMemMB +Inf`},
		{"NaN baseline memory", service(func(s *workload.ServiceSpec) { s.BaselineMemMB = math.NaN() }),
			`runner: service "api": workload: service "api" has non-finite BaselineMemMB NaN`},
		{"NaN load base", load(func(l *runner.LoadSpec) { l.Base = math.NaN() }),
			`runner: service "api": runner: load base must be finite, got NaN`},
		{"infinite load peak", load(func(l *runner.LoadSpec) { l.Peak = math.Inf(1) }),
			`runner: service "api": runner: load peak must be finite, got +Inf`},
		{"negative load factor", load(func(l *runner.LoadSpec) {
			*l = runner.LoadSpec{Type: "scaled", Factor: -2, Inner: &runner.LoadSpec{Type: "constant", Base: 5}}
		}), `runner: service "api": runner: load factor must be >= 0, got -2`},
		{"infinite load factor", load(func(l *runner.LoadSpec) { l.Factor = math.Inf(1) }),
			`runner: service "api": runner: load factor must be finite, got +Inf`},
		{"NaN load amplitude", load(func(l *runner.LoadSpec) { l.Amplitude = math.NaN() }),
			`runner: service "api": runner: load amplitude must be finite, got NaN`},
		{"infinite ripple amplitude", load(func(l *runner.LoadSpec) { l.RippleAmplitude = math.Inf(-1) }),
			`runner: service "api": runner: load rippleAmplitude must be finite, got -Inf`},
		{"negative load decay", load(func(l *runner.LoadSpec) { l.Decay = -time.Minute }),
			`runner: service "api": runner: load decay must be >= 0, got -1m0s`},
		{"negative load ripple", load(func(l *runner.LoadSpec) { l.Ripple = -time.Second }),
			`runner: service "api": runner: load ripple must be >= 0, got -1s`},
		{"recovery machine without CPU", recovery(func(c *cluster.NodeConfig) { c.Capacity.CPU = 0 }),
			`runner: node recovery "spare": cluster: node "spare" needs positive CPU and memory capacity`},
		{"recovery machine with swap penalty below 1", recovery(func(c *cluster.NodeConfig) { c.SwapPenalty = 0.5 }),
			`runner: node recovery "spare": cluster: node "spare" needs SwapPenalty >= 1, got 0.5`},
		{"recovery machine with negative contention", recovery(func(c *cluster.NodeConfig) { c.CPUContention = -1 }),
			`runner: node recovery "spare": cluster: node "spare" has negative CPUContention`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec, err := baseScenario(t).Compile()
			if err != nil {
				t.Fatal(err)
			}
			tt.mutate(&spec)
			check := func(entry string, err error) {
				t.Helper()
				if want := spec.Name + ": " + tt.want; err == nil || err.Error() != want {
					t.Errorf("%s: error %v, want %q", entry, err, want)
				}
			}
			_, _, err = runner.Build(spec)
			check("runner.Build", err)
			_, err = ExecuteSpecs(1, 1, []RunSpec{spec})
			check("ExecuteSpecs", err)
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
