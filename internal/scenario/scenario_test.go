package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"hyscale/internal/loadgen"
	"hyscale/internal/platform"
	"hyscale/internal/runner"
)

const minimal = `{
  "seed": 1,
  "nodes": 4,
  "algorithm": "hybridmem",
  "duration": "90s",
  "services": [
    {
      "name": "api", "kind": "cpu",
      "cpuPerRequest": 0.1, "targetUtil": 0.5,
      "load": {"type": "wave", "base": 10, "amplitude": 0.3, "period": "1m"}
    }
  ]
}`

func TestParseMinimal(t *testing.T) {
	sc, err := Parse(strings.NewReader(minimal))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Nodes != 4 || sc.Algorithm != "hybridmem" {
		t.Errorf("parsed = %+v", sc)
	}
	if time.Duration(sc.Duration) != 90*time.Second {
		t.Errorf("duration = %v", sc.Duration)
	}
	spec, err := sc.Services[0].Spec()
	if err != nil {
		t.Fatal(err)
	}
	// Defaults filled in.
	if spec.BaselineMemMB != 300 || spec.MinReplicas != 1 || spec.MaxReplicas != 10 {
		t.Errorf("defaults not applied: %+v", spec)
	}
	if spec.Timeout != 30*time.Second {
		t.Errorf("timeout default = %v", spec.Timeout)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	bad := strings.Replace(minimal, `"seed": 1`, `"sede": 1`, 1)
	if _, err := Parse(strings.NewReader(bad)); err == nil {
		t.Error("typo field accepted")
	}
}

func TestParseValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(string) string
	}{
		{"bad duration", func(s string) string { return strings.Replace(s, `"90s"`, `"ninety"`, 1) }},
		{"zero duration", func(s string) string { return strings.Replace(s, `"90s"`, `"0s"`, 1) }},
		{"no services", func(s string) string {
			return strings.Replace(s, `"services": [`, `"services": [], "failures": [`, 1)
		}},
		{"bad kind", func(s string) string { return strings.Replace(s, `"kind": "cpu"`, `"kind": "gpu"`, 1) }},
		{"bad load", func(s string) string { return strings.Replace(s, `"type": "wave"`, `"type": "sawtooth"`, 1) }},
		{"empty name", func(s string) string { return strings.Replace(s, `"name": "api"`, `"name": ""`, 1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tt.mutate(minimal))); err == nil {
				t.Error("invalid scenario accepted")
			}
		})
	}
}

func TestDuplicateServiceNames(t *testing.T) {
	dup := strings.Replace(minimal, `]
}`, `, {
      "name": "api", "kind": "cpu",
      "load": {"type": "constant", "base": 1}
    }]
}`, 1)
	if _, err := Parse(strings.NewReader(dup)); err == nil {
		t.Error("duplicate service accepted")
	}
}

// TestLoadPatternTypes pins the lowering of every JSON load type to the
// runner.LoadSpec of the pattern it always meant, and checks a rate of each.
func TestLoadPatternTypes(t *testing.T) {
	tests := []struct {
		load Load
		want loadgen.Pattern
		at   time.Duration
		rate float64
	}{
		{Load{Type: "none"}, nil, 0, 0},
		{Load{Type: "constant", Base: 7}, loadgen.Constant{RPS: 7}, time.Hour, 7},
		{Load{Type: "wave", Base: 10, Amplitude: 0.5, Period: Duration(time.Minute), Phase: Duration(time.Second)},
			loadgen.Wave{Base: 10, Amplitude: 0.5, Period: time.Minute, PhaseShift: time.Second}, 0, 0},
		{Load{Type: "ramp", Base: 0, Peak: 10, RampUp: Duration(10 * time.Second)},
			loadgen.Ramp{Start: 0, End: 10, Duration: 10 * time.Second}, 5 * time.Second, 5},
		{Load{Type: "burst", Base: 1, Peak: 9, Period: Duration(time.Minute), BurstLen: Duration(10 * time.Second)},
			loadgen.Burst{Base: 1, Peak: 9, Period: time.Minute, BurstLen: 10 * time.Second}, 5 * time.Second, 9},
		{Load{Type: "diurnal", Base: 10, Amplitude: 0.5, Period: Duration(time.Hour)},
			loadgen.Diurnal{Base: 10, DayAmplitude: 0.5, Day: time.Hour}, 0, 10},
		{Load{Type: "flashcrowd", Base: 2, Peak: 20, Start: Duration(time.Minute), RampUp: Duration(time.Second), Hold: Duration(time.Minute)},
			loadgen.FlashCrowd{Base: 2, Peak: 20, Start: time.Minute, RampUp: time.Second, Hold: time.Minute, Decay: time.Second},
			90 * time.Second, 20},
	}
	for _, tt := range tests {
		got := tt.load.Spec()
		if want := runner.FromPattern(tt.want); !reflect.DeepEqual(got, want) {
			t.Errorf("%s lowers to %+v, want %+v", tt.load.Type, got, want)
		}
		p, err := got.Pattern()
		if err != nil {
			t.Fatalf("%s: %v", tt.load.Type, err)
		}
		if p == nil {
			continue
		}
		if tt.rate != 0 {
			if r := p.Rate(tt.at); r != tt.rate {
				t.Errorf("%s.Rate(%v) = %v, want %v", tt.load.Type, tt.at, r, tt.rate)
			}
		}
	}
}

// build compiles a scenario and builds its world through runner.Build.
func build(t *testing.T, sc *Scenario) *platform.World {
	t.Helper()
	spec, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := runner.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildAndRunEndToEnd(t *testing.T) {
	sc, err := Parse(strings.NewReader(minimal))
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := w.Summary()
	if s.Completed < 500 {
		t.Errorf("completed = %d, want >= 500", s.Completed)
	}
	if s.FailedPercent() > 1 {
		t.Errorf("failed = %.2f%%", s.FailedPercent())
	}
}

func TestBuildWithFailures(t *testing.T) {
	js := strings.Replace(minimal, `"services"`, `"failures": [{"node": "node-1", "at": "30s"}], "services"`, 1)
	sc, err := Parse(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(w.Cluster().Nodes()); got != 3 {
		t.Errorf("nodes = %d after failure, want 3", got)
	}
}

func TestBuildAlgorithms(t *testing.T) {
	sc, err := Parse(strings.NewReader(minimal))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"kubernetes", "network", "hybrid", "hybridmem",
		"hybrid-noreclaim", "hybridmem-vertical-only", "hybrid-horizontal-only",
	} {
		sc.Algorithm = name
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := build(t, sc).Control().Algorithm().Name(); got != name {
			t.Errorf("Name = %q, want %q", got, name)
		}
	}
	// Parse rejects a name that resolves to no algorithm.
	js := strings.Replace(minimal, `"hybridmem"`, `"nope"`, 1)
	if _, err := Parse(strings.NewReader(js)); err == nil || !strings.Contains(err.Error(), `unknown algorithm "nope"`) {
		t.Errorf("unknown algorithm: err = %v", err)
	}
	// "none" runs with a no-op scaler.
	js = strings.Replace(minimal, `"hybridmem"`, `"none"`, 1)
	sc, err = Parse(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	build(t, sc)
}

// TestRunErrorPrefixedOnce: runner errors already carry the spec name,
// "scenario", so Run must pass them on without adding its own.
func TestRunErrorPrefixedOnce(t *testing.T) {
	sc, err := Parse(strings.NewReader(minimal))
	if err != nil {
		t.Fatal(err)
	}
	sc.Algorithm = "bogus" // after Parse, so only Run sees it
	_, err = sc.Run()
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if got := strings.Count(err.Error(), "scenario:"); got != 1 {
		t.Errorf("error %q carries the scenario prefix %d times, want once", err, got)
	}
}

func TestDurationRoundTrip(t *testing.T) {
	d := Duration(90 * time.Second)
	b, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1m30s"` {
		t.Errorf("marshal = %s", b)
	}
	var d2 Duration
	if err := d2.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if d2 != d {
		t.Errorf("round trip = %v", d2)
	}
	if err := d2.UnmarshalJSON([]byte(`42`)); err == nil {
		t.Error("numeric duration accepted")
	}
}
