package platform

// Call-graph propagation tests: the DAG conservation invariants, the
// retry-budget storm regression, and the guarantee that worlds without a
// callGraph/resilience block never touch the cascade machinery.

import (
	"testing"
	"time"

	"hyscale/internal/core"
	"hyscale/internal/faults"
	"hyscale/internal/loadgen"
	"hyscale/internal/resilience"
	"hyscale/internal/workload"
)

// cascadeTier builds one CPU-bound tier with a bounded queue.
func cascadeTier(name string, cpuPerReq float64, timeout time.Duration) workload.ServiceSpec {
	return workload.ServiceSpec{
		Name: name, Kind: workload.KindCPUBound,
		CPUPerRequest:         cpuPerReq,
		CPUOverheadPerRequest: 0.005,
		MemPerRequest:         2,
		BaselineMemMB:         300,
		InitialReplicaCPU:     1,
		InitialReplicaMemMB:   512,
		MinReplicas:           2,
		MaxReplicas:           4,
		Timeout:               timeout,
		QueueLimit:            64,
	}
}

// cascadeWorld builds a world routing root traffic through graph, with the
// given defenses and fault schedule. Only graph roots receive external load.
func cascadeWorld(t *testing.T, seed int64, graph workload.CallGraph,
	res resilience.Config, fc faults.Config, services []workload.ServiceSpec, rps float64) *World {
	t.Helper()
	cfg := DefaultConfig(seed)
	cfg.Nodes = 8
	cfg.CallGraph = graph
	cfg.Resilience = res
	cfg.Faults = fc
	w, err := New(cfg, core.NewKubernetes(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	roots := make(map[string]bool)
	for _, r := range graph.Roots() {
		roots[r] = true
	}
	for _, spec := range services {
		var pattern loadgen.Pattern
		if roots[spec.Name] {
			pattern = loadgen.Constant{RPS: rps}
		}
		if err := w.AddService(spec, 0.5, pattern); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// fanoutGraph is a DAG exercising probabilistic and multi-call edges with a
// shared leaf: gateway -> catalog (p=0.7), gateway -> orders (2 calls each),
// both -> db.
func fanoutGraph() (workload.CallGraph, []workload.ServiceSpec) {
	graph := workload.CallGraph{Edges: []workload.CallEdge{
		{From: "gateway", To: "catalog", Prob: 0.7},
		{From: "gateway", To: "orders", Calls: 2},
		{From: "catalog", To: "db"},
		{From: "orders", To: "db"},
	}}
	services := []workload.ServiceSpec{
		cascadeTier("gateway", 0.015, 10*time.Second),
		cascadeTier("catalog", 0.02, 6*time.Second),
		cascadeTier("orders", 0.02, 6*time.Second),
		cascadeTier("db", 0.03, 3*time.Second),
	}
	return graph, services
}

// TestCascadeConservation checks the accounting invariants that every
// downstream feature (reports, metrics, experiment tables) leans on, across
// seeds and defense levels, under a mid-run slow + black-hole fault:
//
//	roots:     Generated == Completed + Shed + Deadline + Failed
//	per edge:  Issued == Delivered + Dropped
//
// Requests must never be double-counted or lost, whatever mix of sheds,
// breaker short-circuits, deadline abandonments and retries the run hits.
func TestCascadeConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	defenses := map[string]resilience.Config{
		"naive": {Retry: &resilience.RetryConfig{MaxAttempts: 3, Backoff: 100 * time.Millisecond}},
		"full": {
			Breakers:  &resilience.BreakerConfig{FailuresToOpen: 5, OpenFor: 2 * time.Second},
			Retry:     &resilience.RetryConfig{MaxAttempts: 3, Backoff: 100 * time.Millisecond, Budget: 0.2},
			Deadlines: &resilience.DeadlineConfig{Margin: 50 * time.Millisecond},
			Shedding:  &resilience.ShedConfig{UtilThreshold: 0.2, MaxShed: 0.95},
		},
	}
	for name, res := range defenses {
		res := res
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 7} {
				graph, services := fanoutGraph()
				fc := faults.Config{Seed: seed + 3000, Windows: []faults.Window{
					{Kind: faults.KindSlowBackend, Target: "db", From: 60 * time.Second, To: 150 * time.Second, Factor: 20},
					{Kind: faults.KindBackend, Target: "db", From: 90 * time.Second, To: 120 * time.Second},
				}}
				w := cascadeWorld(t, seed, graph, res, fc, services, 10)
				if err := w.RunUntilDrained(4*time.Minute, time.Minute); err != nil {
					t.Fatal(err)
				}
				s := w.CascadeStats()
				if s.RootGenerated < 1000 {
					t.Fatalf("seed %d: RootGenerated = %d, workload too small to mean anything", seed, s.RootGenerated)
				}
				if got := s.RootCompleted + s.RootShed + s.RootDeadline + s.RootFailed; got != s.RootGenerated {
					t.Errorf("seed %d: root conservation violated: generated %d != completed %d + shed %d + deadline %d + failed %d",
						seed, s.RootGenerated, s.RootCompleted, s.RootShed, s.RootDeadline, s.RootFailed)
				}
				if len(s.Edges) != len(graph.Edges) {
					t.Errorf("seed %d: edge stats for %d edges, want %d", seed, len(s.Edges), len(graph.Edges))
				}
				for _, key := range s.EdgeKeys() {
					es := s.Edges[key]
					if es.Issued != es.Delivered+es.Dropped {
						t.Errorf("seed %d: edge %s conservation violated: issued %d != delivered %d + dropped %d",
							seed, key, es.Issued, es.Delivered, es.Dropped)
					}
					if es.Issued == 0 {
						t.Errorf("seed %d: edge %s saw no traffic", seed, key)
					}
				}
			}
		})
	}
}

// TestCallGraphNodeFailureBooksOnce kills two of eight machines under
// call-graph load with a slowed leaf, so the kills take roots, parents
// waiting on children and children whose parents are still running. Every
// request the run issued must be booked exactly once: the recorder's total
// equals the roots plus every edge's issued attempts (no defense is on, so
// every attempt is a request), roots are conserved, and once the load stops
// and the tree drains no slab node is left live.
func TestCallGraphNodeFailureBooksOnce(t *testing.T) {
	graph, services := fanoutGraph()
	cfg := DefaultConfig(5)
	cfg.Nodes = 8
	cfg.CallGraph = graph
	cfg.Faults = faults.Config{Windows: []faults.Window{
		{Kind: faults.KindSlowBackend, Target: "db", From: 0, To: time.Hour, Factor: 10},
	}}
	w, err := New(cfg, core.NewKubernetes(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range services {
		var pattern loadgen.Pattern
		if spec.Name == "gateway" {
			pattern = loadgen.Func(func(at time.Duration) float64 {
				if at < time.Minute {
					return 20
				}
				return 0
			})
		}
		if err := w.AddService(spec, 0.5, pattern); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"node-1", "node-2"} {
		if err := w.ScheduleNodeFailure(30*time.Second, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Run(3 * time.Minute); err != nil {
		t.Fatal(err)
	}

	s, sum := w.CascadeStats(), w.Summary()
	issued := s.RootGenerated
	for _, es := range s.Edges {
		issued += es.Issued
	}
	if sum.Requests != issued {
		t.Errorf("booked %d outcomes for %d issued requests", sum.Requests, issued)
	}
	if got := s.RootCompleted + s.RootShed + s.RootDeadline + s.RootFailed; got != s.RootGenerated {
		t.Errorf("%d roots resolved != %d generated (%+v)", got, s.RootGenerated, s)
	}
	live := 0
	for _, chunk := range w.graph.chunks {
		for i := range chunk {
			if chunk[i].req != nil {
				live++
			}
		}
	}
	if live != 0 {
		t.Errorf("%d slab nodes still live after the drain", live)
	}
	if sum.RemovalFailures == 0 {
		t.Errorf("the node failures killed no request: %+v", sum)
	}
	t.Logf("%d issued, %d booked, %d removal failures, %d live nodes", issued, sum.Requests, sum.RemovalFailures, live)
}

// TestRetryBudgetStopsRetryStorm is the retry-storm regression: against a
// black-holed downstream, naive clients with MaxAttempts 4 amplify every
// call slot into ~4 attempts, while a 10% Finagle budget caps amplification
// at 1.1x regardless of how hard the tier fails.
func TestRetryBudgetStopsRetryStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	graph := workload.CallGraph{Edges: []workload.CallEdge{{From: "front", To: "back"}}}
	services := []workload.ServiceSpec{
		cascadeTier("front", 0.01, 10*time.Second),
		cascadeTier("back", 0.02, 3*time.Second),
	}
	run := func(budget float64) resilience.Counters {
		fc := faults.Config{Seed: 99, Windows: []faults.Window{
			// Black-holed from the start so every downstream call fails fast
			// and the amplification signal is pure.
			{Kind: faults.KindBackend, Target: "back", From: 0, To: time.Hour},
		}}
		res := resilience.Config{Retry: &resilience.RetryConfig{
			MaxAttempts: 4, Backoff: 100 * time.Millisecond, Budget: budget}}
		w := cascadeWorld(t, 5, graph, res, fc, services, 10)
		if err := w.RunUntilDrained(2*time.Minute, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		return w.Resilience().Counters()
	}

	naive := run(0)
	if naive.FirstAttempts < 500 {
		t.Fatalf("naive run made only %d first attempts", naive.FirstAttempts)
	}
	if amp := naive.Amplification(); amp <= 2 {
		t.Errorf("unbudgeted amplification = %.2fx, want > 2x (retry storm)", amp)
	}

	budgeted := run(0.1)
	if amp := budgeted.Amplification(); amp > 1.1 {
		t.Errorf("budgeted amplification = %.2fx, want <= 1.1x", amp)
	}
	if budgeted.RetriesDenied == 0 {
		t.Error("budget denied no retries against a black-holed backend")
	}
}

// TestPlainWorldSkipsCascadeMachinery guards the no-op contract: without a
// callGraph or resilience block the world must never instantiate the
// propagation layer, so the paper's original scenarios are bit-for-bit
// unaffected by this subsystem's existence. A plain request still takes the
// one admission path, so a slow-backend window must slow it, and a tier
// whose bounded queues are all full must refuse each request once, as a
// connection failure that is not counted as an absent backend.
func TestPlainWorldSkipsCascadeMachinery(t *testing.T) {
	run := func(fc faults.Config, rps float64) *World {
		cfg := DefaultConfig(3)
		cfg.Nodes = 4
		cfg.Faults = fc
		w, err := New(cfg, core.NewKubernetes(core.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		spec := cascadeTier("solo", 0.02, 10*time.Second)
		spec.QueueLimit = 16
		if err := w.AddService(spec, 0.5, loadgen.Constant{RPS: rps}); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(2 * time.Minute); err != nil {
			t.Fatal(err)
		}
		if w.HasCallGraph() {
			t.Error("plain world reports a call graph")
		}
		if w.Resilience() != nil {
			t.Error("plain world instantiated a resilience manager")
		}
		if s := w.CascadeStats(); s.RootGenerated != 0 || len(s.Edges) != 0 {
			t.Errorf("plain world accumulated cascade stats: %+v", s)
		}
		if c := w.Resilience().Counters(); c != (resilience.Counters{}) {
			t.Errorf("plain world accumulated resilience counters: %+v", c)
		}
		if s := w.Summary(); s.Completed == 0 {
			t.Error("plain world completed nothing")
		}
		return w
	}

	slowed := faults.Config{Windows: []faults.Window{
		{Kind: faults.KindSlowBackend, Target: "solo", From: 30 * time.Second, To: 90 * time.Second, Factor: 20},
	}}
	if base, slow := run(faults.Config{}, 20), run(slowed, 20); slow.Summary() == base.Summary() {
		t.Errorf("a x20 slow-backend window left the summary unchanged: %+v", slow.Summary())
	}

	full := run(faults.Config{}, 400)
	sum := full.Summary()
	if sum.ConnectionFailures == 0 {
		t.Errorf("the saturated tier refused nothing: %+v", sum)
	}
	if issued, booked := full.ids.Next()-1, sum.Requests+uint64(full.inflight()); booked != issued {
		t.Errorf("%d requests booked or in flight, %d issued", booked, issued)
	}
	if c := full.ConnFailures(); c.Absent != 0 {
		t.Errorf("full-queue refusals counted as absent backends: %+v", c)
	}
}
