package experiments

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hyscale/internal/core"
	"hyscale/internal/platform"
	"hyscale/internal/runner"
	"hyscale/internal/workload"
)

// TestParallelDeterminism is the acceptance gate for the executor: the same
// experiment rendered with one worker and with eight must produce
// byte-identical tables. Fig. 6 covers the macro compile path (specs with
// algorithms and generated load) at smoke scale.
func TestParallelDeterminism(t *testing.T) {
	render := func(parallel int) string {
		opts := Options{Seed: 1, Scale: 0.02, Parallel: parallel}
		out := ""
		r, err := RunFig6(LowBurst, opts)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		out += r.Table().String()
		// Fig. 2 covers the micro compile path (pinned replicas, stress
		// contenders, fixed-count injection).
		f2, err := RunFig2(opts)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		out += f2.Table().String()
		return out
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("tables differ between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestSpecMatchesLegacyExecution is the refactor's equivalence property:
// compiling a macro row to a RunSpec and running it through the executor
// yields exactly the measurements the old hand-wired harness produced. The
// legacy path is reconstructed inline; it builds each service's pattern from
// the ServiceRun's LoadSpec (TestLoadSpecRoundTrip pins that conversion for
// both makeServices shapes). testing/quick drives the seed.
func TestSpecMatchesLegacyExecution(t *testing.T) {
	property := func(seed16 uint16) bool {
		seed := int64(seed16) + 1
		opts := Options{Seed: seed, Scale: 0.01}
		services := makeServices(workload.KindCPUBound, 4, LowBurst, seed)

		// New path: compile and execute.
		row := macroRow{algorithm: "hybridmem"}
		spec := row.compile("quick", services, opts)
		res, err := runner.Run(spec)
		if err != nil {
			t.Logf("seed %d: runner: %v", seed, err)
			return false
		}

		// Legacy path: the pre-RunSpec wiring, with each pattern built
		// from the ServiceRun's LoadSpec.
		algo, err := runner.NewAlgorithm("hybridmem", core.DefaultConfig())
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		w, err := platform.New(platform.DefaultConfig(seed), algo)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, s := range services {
			pattern, err := s.Load.Pattern()
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if err := w.AddService(s.Spec, s.Target, pattern); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		if err := w.Run(macroDuration(opts)); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}

		if res.Summary != w.Summary() {
			t.Logf("seed %d: summaries diverge:\n  spec   %+v\n  legacy %+v", seed, res.Summary, w.Summary())
			return false
		}
		if !slices.Equal(res.Metrics, w.Metrics()) {
			t.Logf("seed %d: metric lists diverge:\n  spec   %+v\n  legacy %+v", seed, res.Metrics, w.Metrics())
			return false
		}
		if res.Cost != w.CostReport() {
			t.Logf("seed %d: cost reports diverge", seed)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

// TestExecuteSurfacesClampedEvents: the per-engine clamped-event counter
// flows through the runner into every result.
func TestExecuteSurfacesClampedEvents(t *testing.T) {
	opts := Options{Seed: 1, Scale: 0.01}
	services := makeServices(workload.KindCPUBound, 2, LowBurst, opts.Seed)
	spec := macroRow{algorithm: "kubernetes"}.compile("clamp", services, opts)
	spec.Duration = 30 * time.Second
	res, err := runner.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// A healthy run schedules nothing in the past.
	if res.ClampedEvents != 0 {
		t.Errorf("unexpected clamped events: %d", res.ClampedEvents)
	}
	if res.ClampedEvents != res.World.ClampedEvents() {
		t.Errorf("result counter (%d) diverges from world counter (%d)", res.ClampedEvents, res.World.ClampedEvents())
	}
}
