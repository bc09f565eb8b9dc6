package platform

import (
	"testing"
	"time"

	"hyscale/internal/container"
	"hyscale/internal/faults"
	"hyscale/internal/loadgen"
	"hyscale/internal/obs"
	"hyscale/internal/resources"
	"hyscale/internal/workload"
)

// feed runs a reconvergence state machine with the given onset over a
// per-second series of provisioned CPU per service; series[k] is the
// sample at second k+1.
func feed(onset time.Duration, series [][]float64) *reconvergence {
	r := newReconvergence(onset, len(series[0]))
	for k, cpu := range series {
		r.sample(time.Duration(k+1)*time.Second, cpu)
	}
	return r
}

// repeat returns n copies of one sample.
func repeat(n int, cpu ...float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = cpu
	}
	return out
}

func series(parts ...[][]float64) [][]float64 {
	var out [][]float64
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestReconvergenceDefinition pins the one reconvergence definition on
// synthetic capacity series: onset at 10 s, baseline 4 CPU for the first
// service and 2 for the second, arming below 80% and restoring at 95%.
func TestReconvergenceDefinition(t *testing.T) {
	const onset = 10 * time.Second
	// Seconds 1-4 are ramp-up, before half the onset: they must not lower
	// the baseline. Seconds 5-9 are the settled pre-onset window.
	pre := series(repeat(4, 1, 0.5), repeat(5, 4, 2))
	tests := []struct {
		name string
		post [][]float64 // samples from second 10 on
		want float64
	}{
		{"never degraded", repeat(20, 4, 2), 0},
		{"shallow dip only", series(repeat(5, 3.4, 2), repeat(15, 4, 2)), 0},
		{"degraded, never restored", series(repeat(2, 4, 2), repeat(18, 4, 1)), -1},
		{"restored inside 95%", series(repeat(2, 4, 2), repeat(3, 4, 1), repeat(15, 3.9, 1.95)), 5},
		// A deep dip at 10-11 s returns at 12 s; a second wave dips again at
		// 15 s and returns at 20 s: the last return is reported.
		{"rolling second dip", series(repeat(2, 3, 2), repeat(3, 4, 2), repeat(5, 4, 1), repeat(10, 4, 2)), 10},
		// Jitter inside the band after a deep dip is not a return...
		{"band does not latch", series(repeat(2, 3, 2), repeat(8, 3.5, 2), repeat(10, 4, 2)), 10},
		// ...and jitter inside the band after a return does not reset it.
		{"band does not reset", series(repeat(2, 3, 2), repeat(3, 4, 2), repeat(15, 3.5, 1.7)), 2},
		{"never degraded, then a dip that stays", series(repeat(5, 4, 2), repeat(15, 4, 0)), -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := feed(onset, series(pre, tt.post)).seconds(); got != tt.want {
				t.Errorf("reconverge = %v, want %v", got, tt.want)
			}
		})
	}

	// Without a scheduled fault every sample is pre-onset: never degraded.
	if got := feed(-1, repeat(30, 0)).seconds(); got != 0 {
		t.Errorf("no onset: reconverge = %v, want 0", got)
	}
}

// TestFaultOnset: the onset is the earliest node failure or fault window,
// whichever kind comes first.
func TestFaultOnset(t *testing.T) {
	if got := faultOnset(nil, nil); got != -1 {
		t.Errorf("no failure or window: onset = %v, want -1", got)
	}
	failures := []time.Duration{40 * time.Second}
	windows := []faults.Window{
		{Kind: faults.KindMonitorCrash, From: 60 * time.Second, To: 90 * time.Second},
		{Kind: faults.KindBackend, From: 30 * time.Second, To: 35 * time.Second},
	}
	if got := faultOnset(failures, windows); got != 30*time.Second {
		t.Errorf("onset = %v, want 30s", got)
	}
	if got := faultOnset(failures, windows[:1]); got != 40*time.Second {
		t.Errorf("failure first: onset = %v, want 40s", got)
	}
}

// TestAvailabilityExcludesBlackHoledReplica: a service-second is up only
// when some replica is both routable and outside an injected backend
// outage.
func TestAvailabilityExcludesBlackHoledReplica(t *testing.T) {
	spec := workload.ServiceSpec{Name: "api"}
	running := func(id string) *container.Container {
		c := container.New(id, spec, "node-0", resources.Vector{CPU: 1}, 0)
		c.State = container.StateRunning
		return c
	}
	holed, healthy := running("api-0"), running("api-1")
	starting := container.New("api-2", spec, "node-0", resources.Vector{CPU: 1}, time.Minute)
	inj := faults.New(faults.Config{Seed: 1, Windows: []faults.Window{
		{Kind: faults.KindBackend, Target: "api-0", From: 10 * time.Second, To: 20 * time.Second},
	}})
	in, after := 15*time.Second, 20*time.Second
	tests := []struct {
		name     string
		now      time.Duration
		replicas []*container.Container
		want     bool
	}{
		{"black-holed only", in, []*container.Container{holed}, false},
		{"black-holed and starting", in, []*container.Container{holed, starting}, false},
		{"black-holed and healthy", in, []*container.Container{holed, healthy}, true},
		{"outage over", after, []*container.Container{holed}, true},
		{"starting only", after, []*container.Container{starting}, false},
		{"no replicas", after, nil, false},
	}
	for _, tt := range tests {
		if got := serviceUp(tt.now, inj, tt.replicas); got != tt.want {
			t.Errorf("%s: up = %v, want %v", tt.name, got, tt.want)
		}
	}
	// A nil injector (no faults configured) black-holes nothing.
	if !serviceUp(in, nil, []*container.Container{holed}) {
		t.Error("nil injector: running replica reported down")
	}
}

// healthWorld runs a small world for a minute with the given faults and
// node failures.
func healthWorld(t *testing.T, fc faults.Config, failAt ...time.Duration) *World {
	t.Helper()
	cfg := smallConfig(1)
	cfg.Faults = fc
	w, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if err := w.AddService(cpuSpec(name), 0.5, loadgen.Constant{RPS: 5}); err != nil {
			t.Fatal(err)
		}
	}
	for _, at := range failAt {
		if err := w.ScheduleNodeFailure(at, "node-0"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestNoHealthWithoutFaults: a world that cannot fail schedules no health
// sampler and publishes no health series; a scheduled node failure or any
// enabled fault injection makes it sample once per simulated second.
func TestNoHealthWithoutFaults(t *testing.T) {
	healthSeries := []string{SeriesAvailabilityUp, SeriesAvailabilitySampled, SeriesReconverge,
		SeriesGoodputRecovery, SeriesDegraded}
	w := healthWorld(t, faults.Config{})
	if w.health != nil {
		t.Error("a fault-free world scheduled the health sampler")
	}
	for _, name := range healthSeries {
		if _, ok := obs.Lookup(w.Metrics(), name, ""); ok {
			t.Errorf("a fault-free world publishes %s", name)
		}
	}
	for name, w := range map[string]*World{
		"node failure":    healthWorld(t, faults.Config{}, 30*time.Second),
		"fault injection": healthWorld(t, faults.Config{Seed: 1, StatsDropProb: 0.1}),
	} {
		sampled, ok := obs.Lookup(w.Metrics(), SeriesAvailabilitySampled, "")
		if !ok || sampled != 2*60 {
			t.Errorf("%s: %v service-seconds sampled (present %v), want 120", name, sampled, ok)
		}
		if _, ok := obs.Lookup(w.Metrics(), SeriesGoodputRecovery, ""); ok {
			t.Errorf("%s: goodput recovery published on a world without a call graph", name)
		}
	}
}

// TestHealthSampleAllocFree: a warm health sample allocates nothing, on a
// call-graph world where goodput recovery runs too.
func TestHealthSampleAllocFree(t *testing.T) {
	graph, services := fanoutGraph()
	cfg := smallConfig(1)
	cfg.CallGraph = graph
	cfg.Faults = faults.Config{Seed: 1, Windows: []faults.Window{
		{Kind: faults.KindBackend, Target: "db", From: 20 * time.Second, To: 30 * time.Second},
	}}
	w, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range services {
		var pattern loadgen.Pattern
		if spec.Name == "gateway" {
			pattern = loadgen.Constant{RPS: 10}
		}
		if err := w.AddService(spec, 0.5, pattern); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Run(40 * time.Second); err != nil { // past the onset: the goodput window is full
		t.Fatal(err)
	}
	if w.health == nil || w.health.goodput == nil || len(w.health.goodput.window) != 5 {
		t.Fatal("the world is not sampling goodput recovery")
	}
	// AllocsPerRun truncates its average, so each run takes several
	// samples: an occasional allocation still shows.
	allocs := testing.AllocsPerRun(100, func() {
		for range 16 {
			w.sampleHealth(w.Engine())
		}
	})
	if allocs != 0 {
		t.Errorf("16 health samples allocate %.2f objects, want 0", allocs)
	}
}
