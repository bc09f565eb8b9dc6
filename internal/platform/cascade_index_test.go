package platform

// Call-graph index tests: the edges compiled at Start against the graph
// they come from, and the allocation bound of a warm call-graph tick.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"hyscale/internal/core"
	"hyscale/internal/faults"
	"hyscale/internal/loadgen"
	"hyscale/internal/resilience"
	"hyscale/internal/sim"
	"hyscale/internal/workload"
)

// indexWorld is the fan-out DAG plus a "spare" tier with an edge to db but
// no traffic of its own, so spare->db is declared but never issued. Edges
// are declared interleaved by caller and services registered in another
// order again, so neither declaration nor ordinal order can stand in for
// the other. db is slowed and then black-holed mid-run so the breakers
// trip.
func indexWorld(t *testing.T, seed int64) (*World, workload.CallGraph) {
	t.Helper()
	graph := workload.CallGraph{Edges: []workload.CallEdge{
		{From: "gateway", To: "orders", Calls: 2},
		{From: "spare", To: "db"},
		{From: "gateway", To: "catalog", Prob: 0.7},
		{From: "orders", To: "db"},
		{From: "catalog", To: "db", Prob: 0.5, Calls: 3},
	}}
	cfg := DefaultConfig(seed)
	cfg.Nodes = 8
	cfg.Observe = true
	cfg.CallGraph = graph
	cfg.Resilience = resilience.Config{
		Breakers: &resilience.BreakerConfig{FailuresToOpen: 5, OpenFor: 2 * time.Second},
		Retry:    &resilience.RetryConfig{MaxAttempts: 3, Backoff: 100 * time.Millisecond, Budget: 0.2},
	}
	cfg.Faults = faults.Config{Seed: seed + 3000, Windows: []faults.Window{
		{Kind: faults.KindSlowBackend, Target: "db", From: 30 * time.Second, To: 60 * time.Second, Factor: 20},
		{Kind: faults.KindBackend, Target: "db", From: 40 * time.Second, To: 50 * time.Second},
	}}
	w, err := New(cfg, core.NewKubernetes(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"db", "spare", "orders", "gateway", "catalog"} {
		var pattern loadgen.Pattern
		if name == "gateway" {
			pattern = loadgen.Constant{RPS: 10}
		}
		if err := w.AddService(cascadeTier(name, 0.02, 6*time.Second), 0.5, pattern); err != nil {
			t.Fatal(err)
		}
	}
	return w, graph
}

// TestCompiledEdgesMatchGraph checks the compiled out-edges of every
// service ordinal against CallGraph.Out — same edges, declaration order,
// effective probability and fan-out, callee and Roll prefix — and that the
// edge and breaker reports still list exactly the edges that carried
// traffic, with the counts the string-keyed implementation produced.
func TestCompiledEdgesMatchGraph(t *testing.T) {
	const seed = 1
	w, graph := indexWorld(t, seed)
	if err := w.Run(90 * time.Second); err != nil {
		t.Fatal(err)
	}

	g := w.graph
	for _, rt := range w.services {
		got, want := g.outEdges(int32(rt.ord)), graph.Out(rt.spec.Name)
		if len(got) != len(want) {
			t.Fatalf("%s: %d compiled out-edges, graph has %d", rt.spec.Name, len(got), len(want))
		}
		for i, e := range got {
			ref := want[i]
			if e != &g.edges[e.ord] || graph.Edges[e.ord] != ref {
				t.Errorf("%s out[%d]: ordinal %d does not name graph edge %s", rt.spec.Name, i, e.ord, ref.Key())
			}
			if e.key != ref.Key() || e.to != w.byName[ref.To] ||
				e.prob != ref.EffectiveProb() || e.calls != ref.EffectiveCalls() {
				t.Errorf("%s out[%d] = {%s -> %s p=%v calls=%d}, want %s p=%v calls=%d", rt.spec.Name, i,
					e.key, e.to.spec.Name, e.prob, e.calls, ref.Key(), ref.EffectiveProb(), ref.EffectiveCalls())
			}
			if e.roll != sim.RollPrefix(seed, "call|"+ref.Key()) {
				t.Errorf("%s: roll prefix differs from RollPrefix(seed, call|key)", e.key)
			}
		}
	}

	// Pinned from the string-keyed implementation at the same seed.
	wantKeys := []string{"catalog->db", "gateway->catalog", "gateway->orders", "orders->db"}
	s := w.CascadeStats()
	if got := s.EdgeKeys(); !slices.Equal(got, wantKeys) {
		t.Errorf("EdgeKeys = %v, want %v", got, wantKeys)
	}
	if got := w.Resilience().BreakerEdges(); !slices.Equal(got, wantKeys) {
		t.Errorf("BreakerEdges = %v, want %v", got, wantKeys)
	}
	states := w.Resilience().BreakerStates(w.Engine().Now())
	if got, want := fmt.Sprint(states), "map[catalog->db:closed gateway->catalog:closed gateway->orders:closed orders->db:closed]"; got != want {
		t.Errorf("BreakerStates = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(s), pinnedIndexStats; got != want {
		t.Errorf("CascadeStats =\n%s\nwant\n%s", got, want)
	}
	if opens := w.Resilience().Counters().BreakerOpens; opens != 16 {
		t.Errorf("BreakerOpens = %d, want 16", opens)
	}
}

// pinnedIndexStats is indexWorld's CascadeStats at seed 1 after 90s, as
// the string-keyed implementation reported it.
const pinnedIndexStats = "{900 697 0 0 203 map[catalog->db:{741 726 15} gateway->catalog:{524 511 13} " +
	"gateway->orders:{1660 1470 190} orders->db:{1498 1455 43}]}"

// TestWarmCallGraphAllocBound pins the allocation cost of a warm
// call-graph tick at zero: every tracked request — a root or a downstream
// call attempt — is drawn from the World's request pool and tracked by a
// recycled node, and scheduled retries are free-listed records behind one
// bound event. Edge lookups, breaker and budget ledgers, probability draws,
// routing and completion accounting allocate nothing either. The retries
// variant slows db for the whole run, so its calls time out and are
// retried inside the measured ticks.
func TestWarmCallGraphAllocBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		res  resilience.Config
		fc   faults.Config
	}{
		{name: "defenses", res: resilience.Config{
			Breakers:  &resilience.BreakerConfig{FailuresToOpen: 5, OpenFor: 2 * time.Second},
			Deadlines: &resilience.DeadlineConfig{Margin: 50 * time.Millisecond},
			Shedding:  &resilience.ShedConfig{UtilThreshold: 0.5, MaxShed: 0.95},
		}},
		{name: "retries", res: resilience.Config{
			Retry: &resilience.RetryConfig{MaxAttempts: 3, Backoff: 100 * time.Millisecond},
		}, fc: faults.Config{Windows: []faults.Window{
			{Kind: faults.KindSlowBackend, Target: "db", From: 0, To: time.Hour, Factor: 40},
		}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			graph, services := fanoutGraph()
			w := cascadeWorld(t, 3, graph, tc.res, tc.fc, services, 20)
			w.cfg.MonitorPeriod = time.Hour
			for _, spec := range services {
				w.Recorder().Reserve(spec.Name, 1<<16)
			}
			now := 20 * time.Second
			if err := w.Run(now); err != nil { // warm: pools, buffers and caches sized
				t.Fatal(err)
			}

			issued := func() uint64 {
				s := w.CascadeStats()
				n := s.RootGenerated
				for _, es := range s.Edges {
					n += es.Issued
				}
				return n
			}
			before, retriesBefore := issued(), w.Resilience().Counters().Retries
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			// Mallocs counts the runtime's own objects too. After a GC
			// cycle the background scavenger returns free pages in bursts
			// and re-arms its sleep timer between them, which can grow a
			// P's timer heap by one object inside the window. FreeOSMemory
			// completes a cycle and returns every free page itself, so the
			// scavenger has nothing left to do when the window opens.
			debug.FreeOSMemory()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < 200; i++ {
				now += w.cfg.Tick
				if err := w.Run(now); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&m1)
			requests := issued() - before
			allocs := m1.Mallocs - m0.Mallocs
			if requests < 1000 {
				t.Fatalf("only %d requests issued in the measured ticks", requests)
			}
			retries := w.Resilience().Counters().Retries - retriesBefore
			if tc.res.Retry != nil && retries < 100 {
				t.Fatalf("only %d retries fired in the measured ticks", retries)
			}
			if allocs != 0 {
				t.Errorf("warm call-graph ticks allocated %d objects for %d requests (%.3f each), want 0",
					allocs, requests, float64(allocs)/float64(requests))
			}
			t.Logf("%d allocations for %d requests and %d retries", allocs, requests, retries)
		})
	}
}
