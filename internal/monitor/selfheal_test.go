package monitor

import (
	"slices"
	"testing"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/core"
	"hyscale/internal/faults"
	"hyscale/internal/resources"
)

// healSetup is setup() with the self-healing control plane enabled and one
// deployed service (MinReplicas=2 spread over node-0/node-1).
func healSetup(t *testing.T) (*cluster.Cluster, *Monitor) {
	t.Helper()
	cl, m := setup(t, nil)
	m.selfHeal = DefaultSelfHealing()
	if err := m.AddService(spec("a"), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := m.DeployInitial("a", 0); err != nil {
		t.Fatal(err)
	}
	cl.Advance(time.Second, 100*time.Millisecond)
	return cl, m
}

// health returns node's detector state, or -1 if untracked.
func health(m *Monitor, node string) NodeHealth {
	for _, c := range m.NodeConditions() {
		if c.Node == node {
			return c.Health
		}
	}
	return NodeHealth(-1)
}

func TestDetectorTransitionsAndRecovery(t *testing.T) {
	cl, m := healSetup(t)
	_ = cl
	// node-0's manager is unreachable for four consecutive polls.
	m.faults = faultWindow(faults.KindStats, "node-0", 4*time.Second, 22*time.Second)

	m.Poll(5 * time.Second)
	if got := health(m, "node-0"); got != NodeHealthy {
		t.Fatalf("after 1 miss: health = %v, want healthy", got)
	}
	m.Poll(10 * time.Second)
	if got := health(m, "node-0"); got != NodeSuspect {
		t.Fatalf("after 2 misses: health = %v, want suspect", got)
	}
	m.Poll(15 * time.Second)
	if got := health(m, "node-0"); got != NodeSuspect {
		t.Fatalf("after 3 misses: health = %v, want suspect", got)
	}
	m.Poll(20 * time.Second)
	if got := health(m, "node-0"); got != NodeDead {
		t.Fatalf("after 4 misses: health = %v, want dead", got)
	}

	// The window closes at 22s; the next successful poll resurrects the node.
	m.Poll(25 * time.Second)
	if got := health(m, "node-0"); got != NodeHealthy {
		t.Fatalf("after recovery: health = %v, want healthy", got)
	}
	rec := m.Recovery()
	if rec.Suspected != 1 || rec.DeclaredDead != 1 || rec.Recovered != 1 {
		t.Errorf("recovery counts = %+v", rec)
	}
}

func TestDetectorDisabledNeverSuspects(t *testing.T) {
	cl, m := setup(t, nil)
	_ = m.AddService(spec("a"), 0.5)
	_ = m.DeployInitial("a", 0)
	cl.Advance(time.Second, 100*time.Millisecond)
	m.faults = faultWindow(faults.KindStats, "node-0", 0, time.Hour)

	for _, at := range []time.Duration{5, 10, 15, 20, 25} {
		m.Poll(at * time.Second)
	}
	rec := m.Recovery()
	if rec.Suspected != 0 || rec.DeclaredDead != 0 {
		t.Errorf("disabled self-healing still detected: %+v", rec)
	}
}

// TestLimboReplicasStayInSnapshot: between the first missed poll and the
// death verdict the unreachable node's replicas must stay visible to the
// algorithm (from cached stats), so an undecided outage cannot trigger a
// scale-out stampede.
func TestLimboReplicasStayInSnapshot(t *testing.T) {
	_, m := healSetup(t)
	m.Sample()
	m.faults = faultWindow(faults.KindStats, "node-0", 4*time.Second, time.Hour)

	algo := m.algo.(*recordingAlgo)
	m.Poll(5 * time.Second)  // miss 1
	m.Poll(10 * time.Second) // miss 2: suspect
	m.Poll(15 * time.Second) // miss 3: still suspect

	for i, snap := range algo.snaps {
		if len(snap.Services) != 1 {
			t.Fatalf("snapshot %d: services = %d", i, len(snap.Services))
		}
		if got := len(snap.Services[0].Replicas); got != 2 {
			t.Fatalf("snapshot %d: replicas = %d, want 2 (limbo retention)", i, got)
		}
	}

	// The death verdict excises the replica.
	m.Poll(20 * time.Second)
	last := algo.snaps[len(algo.snaps)-1]
	if got := len(last.Services[0].Replicas); got != 1 {
		t.Errorf("post-death snapshot replicas = %d, want 1", got)
	}

	// A replica a scale-in removed is not kept in limbo when its node fails
	// before the next poll; the replica beside it, not scaled in, is.
	cl, m := healSetup(t)
	if err := m.StartReplica("a", "node-0", resources.Vector{CPU: 1, MemMB: 512}, 0); err != nil {
		t.Fatal(err)
	}
	algo = m.algo.(*recordingAlgo)
	algo.plan = core.Plan{Actions: []core.Action{core.Remove("a-2")}}
	m.Poll(5 * time.Second)
	algo.plan = core.Plan{}
	if _, err := cl.RemoveNode("node-0"); err != nil {
		t.Fatal(err)
	}
	m.plane.NoteNodeRemoved("node-0")
	m.Poll(10 * time.Second)
	var got []string
	for _, rs := range algo.snaps[len(algo.snaps)-1].Services[0].Replicas {
		got = append(got, rs.ContainerID+"@"+rs.NodeID)
	}
	if want := []string{"a-0@node-0", "a-1@node-1"}; !slices.Equal(got, want) {
		t.Errorf("snapshot after node-0 failed: replicas %v, want %v", got, want)
	}
}

// TestDeadNodeReplicasReplacedAfterCooldown: a machine that vanishes from
// the cluster is declared dead after DeadAfter missed polls; its replica is
// re-placed on a surviving node, but only after the anti-flap cooldown.
func TestDeadNodeReplicasReplacedAfterCooldown(t *testing.T) {
	cl, m := healSetup(t)
	if _, err := cl.RemoveNode("node-0"); err != nil {
		t.Fatal(err)
	}
	m.plane.NoteNodeRemoved("node-0")

	for _, at := range []time.Duration{5, 10, 15, 20} {
		m.Poll(at * time.Second)
	}
	rec := m.Recovery()
	if rec.DeclaredDead != 1 || rec.ReplicasLost != 1 {
		t.Fatalf("recovery counts after death = %+v", rec)
	}
	if got := len(m.Replicas("a")); got != 1 {
		t.Fatalf("replicas after death = %d, want 1", got)
	}
	if m.PendingRetries() != 1 {
		t.Fatalf("pending reconciles = %d, want 1", m.PendingRetries())
	}

	// Cooldown is 10s from the death verdict at 20s: the 25s poll must not
	// re-place yet, the 30s poll must.
	m.Poll(25 * time.Second)
	if got := len(m.Replicas("a")); got != 1 {
		t.Fatalf("replica re-placed before cooldown elapsed (replicas = %d)", got)
	}
	m.Poll(30 * time.Second)
	reps := m.Replicas("a")
	if len(reps) != 2 {
		t.Fatalf("replicas after reconcile = %d, want 2", len(reps))
	}
	for _, r := range reps {
		if r.NodeID == "node-0" {
			t.Errorf("replacement placed on the dead node")
		}
	}
	rec = m.Recovery()
	if rec.Replaced != 1 {
		t.Errorf("Replaced = %d, want 1", rec.Replaced)
	}
	// The reconcile's first execution is not a retry.
	if c := m.Counts(); c.Retries != 0 {
		t.Errorf("Retries = %d, want 0", c.Retries)
	}
}

// TestAntiFlapCancelsQueuedReconcile: a node declared dead that recovers
// within the cooldown gets its queued re-placements cancelled and its
// still-running replicas re-adopted — zero duplicate placements.
func TestAntiFlapCancelsQueuedReconcile(t *testing.T) {
	_, m := healSetup(t)
	// Unreachable long enough to be declared dead (20s), back before the
	// 10s cooldown expires at 30s.
	m.faults = faultWindow(faults.KindStats, "node-0", 4*time.Second, 22*time.Second)

	for _, at := range []time.Duration{5, 10, 15, 20} {
		m.Poll(at * time.Second)
	}
	if m.PendingRetries() != 1 {
		t.Fatalf("pending reconciles = %d, want 1", m.PendingRetries())
	}

	m.Poll(25 * time.Second) // poll OK: recovery inside the cooldown
	if m.PendingRetries() != 0 {
		t.Fatalf("reconcile not cancelled on recovery (pending = %d)", m.PendingRetries())
	}
	// Past the (now cancelled) cooldown deadline: no duplicate placement.
	m.Poll(30 * time.Second)
	m.Poll(35 * time.Second)
	if got := len(m.Replicas("a")); got != 2 {
		t.Fatalf("replicas after flap = %d, want exactly 2 (no duplicates)", got)
	}
	rec := m.Recovery()
	if rec.ReconcileCancelled != 1 || rec.Readopted != 1 || rec.Replaced != 0 {
		t.Errorf("recovery counts = %+v", rec)
	}
}

// TestStaleReplicaDrainedAfterReplacement: if the reconciler has already
// re-placed a replica when its home node resurfaces, the stale original is
// drained instead of re-adopted.
func TestStaleReplicaDrainedAfterReplacement(t *testing.T) {
	_, m := healSetup(t)
	// Unreachable past the cooldown: dead at 20s, re-placed at 30s, back
	// at 35s.
	m.faults = faultWindow(faults.KindStats, "node-0", 4*time.Second, 32*time.Second)

	for _, at := range []time.Duration{5, 10, 15, 20, 25, 30} {
		m.Poll(at * time.Second)
	}
	rec := m.Recovery()
	if rec.Replaced != 1 {
		t.Fatalf("Replaced = %d, want 1 before resurrection", rec.Replaced)
	}

	m.Poll(35 * time.Second)
	rec = m.Recovery()
	if rec.StaleDrained != 1 || rec.Readopted != 0 {
		t.Errorf("recovery counts = %+v (want the stale original drained)", rec)
	}
	reps := m.Replicas("a")
	if len(reps) != 2 {
		t.Fatalf("replicas after drain = %d, want 2", len(reps))
	}
	for _, r := range reps {
		if r.NodeID == "node-0" {
			t.Errorf("stale replica on node-0 still in the service")
		}
	}
}

// TestCheckpointRestoreKeepsReconcilePlan: a monitor restarted from a
// checkpoint keeps the queued re-placements and executes them on schedule.
func TestCheckpointRestoreKeepsReconcilePlan(t *testing.T) {
	cl, m := healSetup(t)
	if _, err := cl.RemoveNode("node-0"); err != nil {
		t.Fatal(err)
	}
	m.plane.NoteNodeRemoved("node-0")
	for _, at := range []time.Duration{5, 10, 15, 20} {
		m.Poll(at * time.Second)
		m.MaybeCheckpoint(at * time.Second)
	}
	if m.PendingRetries() != 1 {
		t.Fatalf("pending reconciles = %d, want 1", m.PendingRetries())
	}

	m.Restart(22 * time.Second)
	if m.PendingRetries() != 1 {
		t.Fatalf("pending reconciles after restore = %d, want 1", m.PendingRetries())
	}
	m.Poll(30 * time.Second)
	if got := len(m.Replicas("a")); got != 2 {
		t.Errorf("replicas after restored reconcile = %d, want 2", got)
	}
	rec := m.Recovery()
	if rec.CheckpointRestores != 1 || rec.ColdRestarts != 0 || rec.Replaced != 1 {
		t.Errorf("recovery counts = %+v", rec)
	}
}

// TestColdRestartLosesReconcilePlan: without checkpointing a restart
// rediscovers replicas from the cluster but forgets the reconcile queue —
// the lost replica is never replaced.
func TestColdRestartLosesReconcilePlan(t *testing.T) {
	cl, m := healSetup(t)
	m.selfHeal.Checkpoint = false
	if _, err := cl.RemoveNode("node-0"); err != nil {
		t.Fatal(err)
	}
	m.plane.NoteNodeRemoved("node-0")
	for _, at := range []time.Duration{5, 10, 15, 20} {
		m.Poll(at * time.Second)
		m.MaybeCheckpoint(at * time.Second)
	}
	if m.PendingRetries() != 1 {
		t.Fatalf("pending reconciles = %d, want 1", m.PendingRetries())
	}

	m.Restart(22 * time.Second)
	if m.PendingRetries() != 0 {
		t.Fatalf("cold restart kept %d pending reconciles", m.PendingRetries())
	}
	// Rediscovery still finds the surviving replica.
	if got := len(m.Replicas("a")); got != 1 {
		t.Fatalf("replicas after cold restart = %d, want 1", got)
	}
	m.Poll(30 * time.Second)
	if got := len(m.Replicas("a")); got != 1 {
		t.Errorf("cold restart executed a forgotten reconcile (replicas = %d)", got)
	}
	rec := m.Recovery()
	if rec.ColdRestarts != 1 || rec.CheckpointRestores != 0 || rec.Replaced != 0 {
		t.Errorf("recovery counts = %+v", rec)
	}
}

// TestPartitionStatsDirectionOnly: a stats-direction partition blinds the
// monitor (missed polls accumulate) but actions still go through.
func TestPartitionStatsDirectionOnly(t *testing.T) {
	_, m := healSetup(t)
	m.faults = faults.New(faults.Config{Windows: []faults.Window{{
		Kind: faults.KindPartition, Target: "node-0",
		Direction: faults.DirectionStats, From: 0, To: time.Hour,
	}}})

	m.Poll(5 * time.Second)
	m.Poll(10 * time.Second)
	if got := health(m, "node-0"); got != NodeSuspect {
		t.Fatalf("stats partition not detected: health = %v", got)
	}

	// An action aimed at the partitioned node still executes.
	algo := m.algo.(*recordingAlgo)
	algo.plan = core.Plan{Actions: []core.Action{
		core.StartOn(0, "node-0", resources.Vector{CPU: 1, MemMB: 512}),
	}}
	m.Poll(15 * time.Second)
	algo.plan = core.Plan{}
	if got := len(m.Replicas("a")); got != 3 {
		t.Errorf("replicas = %d, want 3 (actions unaffected by stats partition)", got)
	}
}

// TestPartitionActionsDirectionOnly: an actions-direction partition defers
// actions on the node (requeued, landing after the window) while stats keep
// flowing — the detector never fires.
func TestPartitionActionsDirectionOnly(t *testing.T) {
	_, m := healSetup(t)
	m.faults = faults.New(faults.Config{Windows: []faults.Window{{
		Kind: faults.KindPartition, Target: "node-0",
		Direction: faults.DirectionActions, From: 0, To: 12 * time.Second,
	}}})

	algo := m.algo.(*recordingAlgo)
	algo.plan = core.Plan{Actions: []core.Action{
		core.StartOn(0, "node-0", resources.Vector{CPU: 1, MemMB: 512}),
	}}
	m.Poll(10 * time.Second)
	algo.plan = core.Plan{}

	if got := len(m.Replicas("a")); got != 2 {
		t.Fatalf("action executed through the partition (replicas = %d)", got)
	}
	if m.PendingRetries() != 1 {
		t.Fatalf("pending = %d, want 1 (action deferred)", m.PendingRetries())
	}
	if got := health(m, "node-0"); got != NodeHealthy {
		t.Fatalf("stats flow but node marked %v", got)
	}

	// The retry lands once the partition heals.
	m.Poll(15 * time.Second)
	if got := len(m.Replicas("a")); got != 3 {
		t.Errorf("replicas = %d, want 3 after partition heals", got)
	}
}

// TestReconcileSkipsDeadNodes: replacement placement must never pick a node
// currently marked dead even if the cluster still lists it.
func TestReconcileSkipsDeadNodes(t *testing.T) {
	_, m := healSetup(t)
	// node-2 hosts nothing but is unreachable — it must not attract the
	// replacement for node-0's lost replica.
	m.faults = faults.New(faults.Config{Windows: []faults.Window{
		{Kind: faults.KindStats, Target: "node-0", From: 4 * time.Second, To: time.Hour},
		{Kind: faults.KindStats, Target: "node-2", From: 4 * time.Second, To: time.Hour},
	}})
	for _, at := range []time.Duration{5, 10, 15, 20, 25, 30} {
		m.Poll(at * time.Second)
	}
	reps := m.Replicas("a")
	if len(reps) != 2 {
		t.Fatalf("replicas = %d, want 2 after reconcile", len(reps))
	}
	for _, r := range reps {
		if r.NodeID != "node-1" {
			t.Errorf("replica on %s, want node-1 (only live node)", r.NodeID)
		}
	}
}
