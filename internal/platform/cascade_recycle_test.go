package platform

// Call-graph request lifetime: nodes and their requests are recycled only
// once nothing can read them.

import (
	"testing"
	"time"

	"hyscale/internal/faults"
	"hyscale/internal/loadgen"
	"hyscale/internal/resilience"
)

// TestRecycledGraphRequestsNeverLive is the call-graph counterpart of
// TestRecycledRequestsNeverLive. It runs the fan-out graph with retries,
// breakers, shedding and deadlines, a slow and then black-holed db, a
// churning control plane and a node failure — so parents resolve while
// their children are still in flight, retries wait on resolved parents and
// replicas are removed under load — and checks after every tick that:
//   - no container holds a recycled request;
//   - every unreleased node's parent chain is unreleased, and so is the
//     parent of every scheduled retry;
//   - the pool's free requests plus the unreleased nodes' requests equal
//     the requests it ever allocated;
//   - every generated root is resolved or still unresolved in the slab.
func TestRecycledGraphRequestsNeverLive(t *testing.T) {
	graph, services := fanoutGraph()
	cfg := DefaultConfig(5)
	cfg.Nodes = 6
	cfg.MonitorPeriod = 2 * time.Second
	cfg.PoissonArrivals = true
	cfg.CallGraph = graph
	cfg.Resilience = resilience.Config{
		Breakers:  &resilience.BreakerConfig{FailuresToOpen: 5, OpenFor: 2 * time.Second},
		Retry:     &resilience.RetryConfig{MaxAttempts: 3, Backoff: 100 * time.Millisecond},
		Deadlines: &resilience.DeadlineConfig{Margin: 50 * time.Millisecond},
		Shedding:  &resilience.ShedConfig{UtilThreshold: 0.3, MaxShed: 0.95},
	}
	cfg.Faults = faults.Config{Seed: 11, Windows: []faults.Window{
		{Kind: faults.KindSlowBackend, Target: "db", From: 20 * time.Second, To: 60 * time.Second, Factor: 20},
		{Kind: faults.KindBackend, Target: "db", From: 40 * time.Second, To: 50 * time.Second},
	}}
	w, err := New(cfg, &churner{})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range services {
		var pattern loadgen.Pattern
		if spec.Name == "gateway" {
			pattern = loadgen.Constant{RPS: 15}
		}
		if err := w.AddService(spec, 0.5, pattern); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.ScheduleNodeFailure(31*time.Second, "node-1"); err != nil {
		t.Fatal(err)
	}

	g := w.graph
	var orphans, retried int
	stepTicks(t, w, 90*time.Second, func(now time.Duration) {
		for _, n := range w.Cluster().Nodes() {
			for _, c := range n.Containers() {
				for _, r := range c.InflightRequests() {
					if recycled(r) {
						t.Fatalf("%v: container %s holds recycled request %d", now, c.ID, r.ID)
					}
				}
			}
		}
		live, unresolvedRoots := 0, uint64(0)
		for _, chunk := range g.chunks {
			for i := range chunk {
				n := &chunk[i]
				if n.req == nil {
					continue // free
				}
				live++
				if recycled(n.req) {
					t.Fatalf("%v: unreleased node %d holds recycled request %d", now, n.handle, n.req.ID)
				}
				if n.parent == nil && !n.resolved {
					unresolvedRoots++
				}
				if n.parent != nil && n.parent.resolved {
					orphans++
				}
				for p := n.parent; p != nil; p = p.parent {
					if p.req == nil || p.refs <= 0 {
						t.Fatalf("%v: node %d's ancestor %d was released", now, n.handle, p.handle)
					}
				}
			}
		}
		for i, r := range g.retries {
			if r.p == nil {
				continue // fired
			}
			retried++
			if r.p.req == nil || r.p.refs <= 0 {
				t.Fatalf("%v: scheduled retry %d's parent %d was released", now, i, r.p.handle)
			}
		}
		free, made := w.reqs.Counts()
		if free+live != made {
			t.Fatalf("%v: %d free + %d live requests != %d allocated", now, free, live, made)
		}
		s := w.CascadeStats()
		if got := s.RootCompleted + s.RootShed + s.RootDeadline + s.RootFailed + unresolvedRoots; got != s.RootGenerated {
			t.Fatalf("%v: %d roots resolved or unresolved != %d generated (%+v)", now, got, s.RootGenerated, s)
		}
	})

	s, sum := w.CascadeStats(), w.Summary()
	counters := w.Resilience().Counters()
	if s.RootCompleted == 0 || s.RootFailed == 0 {
		t.Errorf("a root outcome was never exercised: %+v", s)
	}
	if counters.Retries == 0 || counters.ShortCircuited == 0 || counters.Shed == 0 ||
		counters.DeadlineExceeded == 0 || retried == 0 {
		t.Errorf("a defense was never exercised: %+v, %d retry-ticks", counters, retried)
	}
	if orphans == 0 {
		t.Error("no child outlived its resolved parent")
	}
	if sum.RemovalFailures == 0 || w.Control().Counts().ScaleIns == 0 {
		t.Errorf("no removals: %+v", sum)
	}
	_, made := w.reqs.Counts()
	if uint64(made) >= s.RootGenerated {
		t.Errorf("the pool allocated %d requests for %d roots: nothing was reused", made, s.RootGenerated)
	}
	t.Logf("%d roots, %d requests allocated, %d orphan-ticks, %d retry-ticks, %d removal failures",
		s.RootGenerated, made, orphans, retried, sum.RemovalFailures)
}
