package monitor

import (
	"testing"
	"time"

	"hyscale/internal/core"
	"hyscale/internal/faults"
	"hyscale/internal/resources"
)

// faultWindow builds an injector that forces kind on target during [from, to).
func faultWindow(kind faults.Kind, target string, from, to time.Duration) *faults.Injector {
	return faults.New(faults.Config{
		Windows: []faults.Window{{Kind: kind, Target: target, From: from, To: to}},
	})
}

func TestVerticalRetrySucceedsAfterTransientFault(t *testing.T) {
	cl, m := setup(t, nil)
	_ = m.AddService(spec("a"), 0.5)
	_ = m.DeployInitial("a", 0)
	cl.Advance(time.Second, 100*time.Millisecond)

	rep := m.Replicas("a")[0]
	// The update fails until t=12s; the retry at t=15s lands after recovery.
	m.faults = faultWindow(faults.KindVertical, rep.ID, 0, 12*time.Second)

	algo := m.algo.(*recordingAlgo)
	algo.plan = core.Plan{Actions: []core.Action{
		core.Resize(rep.ID, resources.Vector{CPU: 2.5, MemMB: 600}),
	}}
	m.Poll(10 * time.Second)
	algo.plan = core.Plan{}

	if rep.Alloc.CPU == 2.5 {
		t.Fatal("faulted vertical applied anyway")
	}
	if m.PendingRetries() != 1 {
		t.Fatalf("pending retries = %d, want 1", m.PendingRetries())
	}

	m.Poll(12 * time.Second) // backoff (5s) not yet elapsed
	if rep.Alloc.CPU == 2.5 {
		t.Fatal("retry ran before its backoff deadline")
	}

	m.Poll(15 * time.Second)
	if rep.Alloc.CPU != 2.5 {
		t.Error("retry did not apply the vertical scale")
	}
	c := m.Counts()
	if c.Retries != 1 || c.Vertical != 1 || c.AbandonedActions != 0 {
		t.Errorf("counts = %+v", c)
	}
}

func TestRetryAbandonedAfterMaxAttempts(t *testing.T) {
	cl, m := setup(t, nil)
	_ = m.AddService(spec("a"), 0.5)
	_ = m.DeployInitial("a", 0)
	cl.Advance(time.Second, 100*time.Millisecond)

	rep := m.Replicas("a")[0]
	m.faults = faultWindow(faults.KindVertical, rep.ID, 0, time.Hour) // never recovers

	algo := m.algo.(*recordingAlgo)
	algo.plan = core.Plan{Actions: []core.Action{
		core.Resize(rep.ID, resources.Vector{CPU: 2, MemMB: 600}),
	}}
	m.Poll(10 * time.Second)
	algo.plan = core.Plan{}

	// Backoff doubles from the 5s base: retries fall due at 15s, 25s, 45s.
	for _, at := range []time.Duration{15 * time.Second, 25 * time.Second, 45 * time.Second} {
		m.Poll(at)
	}
	c := m.Counts()
	if c.Retries != 3 {
		t.Errorf("Retries = %d, want 3", c.Retries)
	}
	if c.AbandonedActions != 1 {
		t.Errorf("AbandonedActions = %d, want 1", c.AbandonedActions)
	}
	if c.Vertical != 0 {
		t.Errorf("Vertical = %d, want 0", c.Vertical)
	}
	if m.PendingRetries() != 0 {
		t.Errorf("pending retries = %d after abandon, want 0", m.PendingRetries())
	}
}

func TestHardeningDisabledDropsFailedActions(t *testing.T) {
	cl, m := setup(t, nil)
	m.hardeningOff = true
	_ = m.AddService(spec("a"), 0.5)
	_ = m.DeployInitial("a", 0)
	cl.Advance(time.Second, 100*time.Millisecond)

	rep := m.Replicas("a")[0]
	m.faults = faultWindow(faults.KindVertical, rep.ID, 0, time.Hour)

	algo := m.algo.(*recordingAlgo)
	algo.plan = core.Plan{Actions: []core.Action{
		core.Resize(rep.ID, resources.Vector{CPU: 2, MemMB: 600}),
	}}
	m.Poll(10 * time.Second)

	c := m.Counts()
	if c.AbandonedActions != 1 || m.PendingRetries() != 0 {
		t.Errorf("unhardened monitor should abandon immediately: %+v, pending=%d",
			c, m.PendingRetries())
	}
}

func TestStaleSnapshotServedWithinBound(t *testing.T) {
	cl, m := setup(t, nil)
	_ = m.AddService(spec("a"), 0.5)
	_ = m.DeployInitial("a", 0)
	cl.Advance(time.Second, 100*time.Millisecond)
	m.Sample()

	// node-0's manager is unreachable from t=4s to t=30s.
	m.faults = faultWindow(faults.KindStats, "node-0", 4*time.Second, 30*time.Second)

	if got := len(m.Snapshot(0).Nodes); got != 3 {
		t.Fatalf("nodes before outage = %d, want 3", got)
	}
	// 5s into the run the cache (from t=0) is 5s old — within the 15s bound.
	if got := len(m.Snapshot(5 * time.Second).Nodes); got != 3 {
		t.Errorf("nodes during outage (fresh cache) = %d, want 3", got)
	}
	if m.Counts().StaleSnapshots != 1 {
		t.Errorf("StaleSnapshots = %d, want 1", m.Counts().StaleSnapshots)
	}
	// At 18s the cache is 18s old — past the bound, so the node drops out.
	if got := len(m.Snapshot(18 * time.Second).Nodes); got != 2 {
		t.Errorf("nodes during outage (stale cache) = %d, want 2", got)
	}
	// After recovery the live report returns.
	if got := len(m.Snapshot(35 * time.Second).Nodes); got != 3 {
		t.Errorf("nodes after recovery = %d, want 3", got)
	}
}

func TestStaleSnapshotDisabledDropsNodeImmediately(t *testing.T) {
	cl, m := setup(t, nil)
	m.hardeningOff = true
	_ = m.AddService(spec("a"), 0.5)
	_ = m.DeployInitial("a", 0)
	cl.Advance(time.Second, 100*time.Millisecond)

	m.faults = faultWindow(faults.KindStats, "node-0", 4*time.Second, 30*time.Second)
	_ = m.Snapshot(0) // cache would be warm, but hardening is off
	if got := len(m.Snapshot(5 * time.Second).Nodes); got != 2 {
		t.Errorf("unhardened nodes during outage = %d, want 2", got)
	}
	if m.Counts().StaleSnapshots != 0 {
		t.Errorf("StaleSnapshots = %d, want 0", m.Counts().StaleSnapshots)
	}
}

func TestPlacementFailureRequeuedAndRepicked(t *testing.T) {
	cl, m := setup(t, nil)
	_ = m.AddService(spec("a"), 0.5)
	_ = m.DeployInitial("a", 0)
	cl.Advance(time.Second, 100*time.Millisecond)
	before := len(m.Replicas("a"))

	// The planned node died between the algorithm's decision and Apply —
	// the only way a scale-out placement fails.
	algo := m.algo.(*recordingAlgo)
	algo.plan = core.Plan{Actions: []core.Action{
		core.StartOn(0, "gone-node", resources.Vector{CPU: 1, MemMB: 512}),
	}}
	m.Poll(10 * time.Second)
	algo.plan = core.Plan{}

	if len(m.Replicas("a")) != before {
		t.Fatal("scale-out succeeded despite missing node")
	}
	if c := m.Counts(); c.PlacementFailures != 1 || m.PendingRetries() != 1 {
		t.Fatalf("counts = %+v, pending = %d", c, m.PendingRetries())
	}

	// The retry re-picks a live node instead of failing forever.
	m.Poll(15 * time.Second)
	reps := m.Replicas("a")
	if len(reps) != before+1 {
		t.Fatalf("replicas = %d, want %d after requeued scale-out", len(reps), before+1)
	}
	if id := reps[len(reps)-1].NodeID; id == "gone-node" || id == "" {
		t.Errorf("retry placed on %q", id)
	}
	c := m.Counts()
	if c.Retries != 1 || c.PlacementFailures != 1 {
		t.Errorf("counts = %+v", c)
	}
}

func TestRetriedScaleOutRespectsMaxReplicas(t *testing.T) {
	cl, m := setup(t, nil)
	sp := spec("a")
	sp.MaxReplicas = 3
	_ = m.AddService(sp, 0.5)
	_ = m.DeployInitial("a", 0)
	cl.Advance(time.Second, 100*time.Millisecond)

	// The start fails once; while it waits, a manual start fills the ceiling.
	m.faults = faultWindow(faults.KindStart, "", 0, 12*time.Second)
	algo := m.algo.(*recordingAlgo)
	algo.plan = core.Plan{Actions: []core.Action{
		core.StartOn(0, "node-2", resources.Vector{CPU: 1, MemMB: 512}),
	}}
	m.Poll(10 * time.Second)
	algo.plan = core.Plan{}
	if m.PendingRetries() != 1 {
		t.Fatalf("pending = %d, want 1", m.PendingRetries())
	}
	if err := m.StartReplica("a", "node-2", resources.Vector{CPU: 1, MemMB: 512}, 11*time.Second); err != nil {
		t.Fatal(err)
	}

	m.Poll(15 * time.Second)
	if got := len(m.Replicas("a")); got != 3 {
		t.Errorf("replicas = %d, want 3 (retry must not exceed MaxReplicas)", got)
	}
}

func TestSlowStartStretchesReadiness(t *testing.T) {
	cl, m := setup(t, nil)
	m.startDelay = time.Second
	_ = m.AddService(spec("a"), 0.5)
	_ = m.DeployInitial("a", 0)
	cl.Advance(time.Second, 100*time.Millisecond)

	m.faults = faults.New(faults.Config{
		StartSlowProb: 1, StartSlowBy: 7 * time.Second,
	})
	algo := m.algo.(*recordingAlgo)
	algo.plan = core.Plan{Actions: []core.Action{
		core.StartOn(0, "node-2", resources.Vector{CPU: 1, MemMB: 512}),
	}}
	m.Poll(10 * time.Second)

	reps := m.Replicas("a")
	fresh := reps[len(reps)-1]
	// ReadyAt = poll (10s) + start delay (1s) + injected slowdown (7s).
	if fresh.ReadyAt != 18*time.Second {
		t.Errorf("ReadyAt = %v, want 18s", fresh.ReadyAt)
	}
}
