package scenario

import (
	"strings"
	"testing"
	"time"

	"hyscale/internal/faults"
)

const withFaults = `{
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
  "faults": {
    "verticalFailProb": 0.2,
    "startFailProb": 0.1,
    "startSlowProb": 0.15,
    "startSlowBy": "6s",
    "statsDropProb": 0.25,
    "backendDownProb": 0.1,
    "backendDownFor": "8s",
    "backendDownEvery": "1m",
    "windows": [
      {"kind": "stats", "target": "node-1", "from": "20s", "to": "40s"}
    ]
  }
}`

func TestParseFaultsBlock(t *testing.T) {
	sc, err := Parse(strings.NewReader(withFaults))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.Faults.Config(sc.Seed)
	if cfg.Seed != 3 {
		t.Errorf("fault seed = %d, want scenario seed 3", cfg.Seed)
	}
	if cfg.VerticalFailProb != 0.2 || cfg.StatsDropProb != 0.25 {
		t.Errorf("probs = %+v", cfg)
	}
	if cfg.StartSlowBy != 6*time.Second || cfg.BackendDownFor != 8*time.Second {
		t.Errorf("durations = %+v", cfg)
	}
	if len(cfg.Windows) != 1 || cfg.Windows[0].Kind != faults.KindStats ||
		cfg.Windows[0].Target != "node-1" || cfg.Windows[0].From != 20*time.Second {
		t.Errorf("windows = %+v", cfg.Windows)
	}
	if !cfg.Enabled() {
		t.Error("faults config should be enabled")
	}
}

func TestParseFaultsValidation(t *testing.T) {
	bad := strings.Replace(withFaults, `"verticalFailProb": 0.2`, `"verticalFailProb": 1.7`, 1)
	if _, err := Parse(strings.NewReader(bad)); err == nil {
		t.Error("out-of-range fault probability accepted")
	}
	bogus := strings.Replace(withFaults, `"kind": "stats"`, `"kind": "bogus"`, 1)
	if _, err := Parse(strings.NewReader(bogus)); err == nil {
		t.Error("unknown fault window kind accepted")
	}
}

func TestBuildWiresFaultsAndHardening(t *testing.T) {
	sc, err := Parse(strings.NewReader(withFaults))
	if err != nil {
		t.Fatal(err)
	}
	w := build(t, sc)
	inj := w.FaultInjector()
	if inj == nil || !inj.Enabled() {
		t.Fatal("built world has no fault injector")
	}
	if !w.Control().Arbiters()[0].Hardening.Enabled {
		t.Error("hardening should default to enabled")
	}

	// An explicit "hardening": false flips the switch.
	off := strings.Replace(withFaults, `"faults": {`, `"faults": {
    "hardening": false,`, 1)
	sc2, err := Parse(strings.NewReader(off))
	if err != nil {
		t.Fatal(err)
	}
	w2 := build(t, sc2)
	if w2.Control().Arbiters()[0].Hardening.Enabled {
		t.Error("hardening: false not honoured")
	}
}

func TestNilFaultsIsInert(t *testing.T) {
	var f *Faults
	cfg := f.Config(9)
	if cfg.Enabled() {
		t.Error("nil faults block produced an enabled config")
	}
}

func TestScenarioRunWithFaultsIsDeterministic(t *testing.T) {
	run := func() (uint64, float64) {
		sc, err := Parse(strings.NewReader(withFaults))
		if err != nil {
			t.Fatal(err)
		}
		w, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		s := w.Summary()
		return w.Control().Counts().StaleSnapshots, s.FailedPercent()
	}
	stale1, failed1 := run()
	stale2, failed2 := run()
	if stale1 != stale2 || failed1 != failed2 {
		t.Errorf("runs diverged: (%d, %v) vs (%d, %v)", stale1, failed1, stale2, failed2)
	}
	// The stats window (20s-40s, node-1) guarantees drops; the monitor must
	// have served at least one stale snapshot in its place.
	if stale1 == 0 {
		t.Error("expected stale snapshots from the stats window")
	}
}
