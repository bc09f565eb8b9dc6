package monitor

import (
	"slices"
	"testing"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/core"
	"hyscale/internal/obs"
	"hyscale/internal/resources"
	"hyscale/internal/workload"
)

func spec(name string) workload.ServiceSpec {
	return workload.ServiceSpec{
		Name: name, Kind: workload.KindCPUBound,
		CPUPerRequest: 0.1, MemPerRequest: 10, BaselineMemMB: 100,
		InitialReplicaCPU: 1, InitialReplicaMemMB: 512,
		MinReplicas: 2, MaxReplicas: 6, Timeout: 30 * time.Second,
	}
}

// recordingAlgo returns a fixed plan, its ordinals filled from each
// snapshot, and captures the snapshots it saw.
type recordingAlgo struct {
	plan  core.Plan
	snaps []core.Snapshot
}

func (r *recordingAlgo) Name() string { return "recording" }
func (r *recordingAlgo) Decide(s core.Snapshot) core.Plan {
	r.snaps = append(r.snaps, s)
	return fillOrdinals(s, r.plan)
}

// fillOrdinals stamps plan, in place, as a planner stamps the plans it
// decides from snap: with snap's Epoch, and each vertical and scale-in with
// the flat ordinal of its container among snap's replicas and its service's
// ordinal (both left 0 when snap does not list it).
func fillOrdinals(snap core.Snapshot, plan core.Plan) core.Plan {
	plan.Epoch = snap.Epoch
	for i := range plan.Actions {
		a := &plan.Actions[i]
		if a.Kind == core.ScaleOut {
			continue
		}
		k := int32(0)
	find:
		for _, ss := range snap.Services {
			for _, rs := range ss.Replicas {
				k++
				if rs.ContainerID == a.ContainerID {
					a.Svc, a.Replica = int32(ss.Info.Ord+1), k
					break find
				}
			}
		}
	}
	return plan
}

func setup(t *testing.T, algo core.Algorithm) (*cluster.Cluster, *Monitor) {
	t.Helper()
	cl, err := cluster.NewHomogeneous(3, cluster.DefaultNodeConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	if algo == nil {
		algo = &recordingAlgo{}
	}
	return cl, soloMonitor(cl, algo)
}

func TestAddServiceValidation(t *testing.T) {
	_, m := setup(t, nil)
	if err := m.AddService(spec("a"), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := m.AddService(spec("a"), 0.5); err == nil {
		t.Error("duplicate service accepted")
	}
	bad := spec("b")
	bad.MinReplicas = 0
	if err := m.AddService(bad, 0.5); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestDeployInitialSpreadsReplicas(t *testing.T) {
	_, m := setup(t, nil)
	if err := m.AddService(spec("a"), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := m.DeployInitial("a", 0); err != nil {
		t.Fatal(err)
	}
	reps := m.Replicas("a")
	if len(reps) != 2 {
		t.Fatalf("replicas = %d, want MinReplicas=2", len(reps))
	}
	if reps[0].NodeID == reps[1].NodeID {
		t.Error("replicas not spread across nodes")
	}
	if err := m.DeployInitial("nope", 0); err == nil {
		t.Error("unknown service accepted")
	}
}

func TestInitialDeploymentIsWarm(t *testing.T) {
	_, m := setup(t, nil)
	m.startDelay = 2 * time.Second
	_ = m.AddService(spec("a"), 0.5)
	_ = m.DeployInitial("a", 0)
	for _, r := range m.Replicas("a") {
		if !r.Routable() {
			t.Error("initial replica not warm")
		}
	}
}

func TestScaleOutReplicasPayStartDelay(t *testing.T) {
	cl, m := setup(t, nil)
	m.startDelay = 2 * time.Second
	_ = m.AddService(spec("a"), 0.5)
	_ = m.DeployInitial("a", 0)

	algo := m.algo.(*recordingAlgo)
	algo.plan = core.Plan{Actions: []core.Action{
		core.StartOn(0, "node-2", resources.Vector{CPU: 1, MemMB: 512}),
	}}
	m.Poll(10 * time.Second)
	algo.plan = core.Plan{}

	fresh := m.Replicas("a")[2]
	if fresh.Routable() {
		t.Error("scale-out replica routable before start delay")
	}
	cl.Advance(12*time.Second, 100*time.Millisecond)
	if !fresh.Routable() {
		t.Error("scale-out replica not routable after start delay")
	}
}

func TestSnapshotStructure(t *testing.T) {
	cl, m := setup(t, nil)
	_ = m.AddService(spec("a"), 0.5)
	_ = m.DeployInitial("a", 0)
	cl.Advance(time.Second, 100*time.Millisecond) // start replicas
	m.Sample()

	snap := m.Snapshot(5 * time.Second)
	if snap.Now != 5*time.Second {
		t.Errorf("Now = %v", snap.Now)
	}
	if len(snap.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(snap.Nodes))
	}
	if len(snap.Services) != 1 {
		t.Fatalf("services = %d, want 1", len(snap.Services))
	}
	svc := snap.Services[0]
	if svc.Info.Name != "a" || svc.Info.TargetUtil != 0.5 || svc.Info.MinReplicas != 2 {
		t.Errorf("info = %+v", svc.Info)
	}
	if len(svc.Replicas) != 2 {
		t.Fatalf("replicas = %d", len(svc.Replicas))
	}
	for _, r := range svc.Replicas {
		if r.Requested.CPU != 1 || !r.Routable || r.NodeID == "" {
			t.Errorf("replica stats wrong: %+v", r)
		}
	}
	// Hosting nodes advertise the service.
	hosting := 0
	for _, n := range snap.Nodes {
		if slices.Contains(n.Hosts, "a") {
			hosting++
		}
	}
	if hosting != 2 {
		t.Errorf("hosting nodes = %d, want 2", hosting)
	}
}

func TestPollAppliesPlan(t *testing.T) {
	cl, m := setup(t, nil)
	_ = m.AddService(spec("a"), 0.5)
	_ = m.DeployInitial("a", 0)
	cl.Advance(time.Second, 100*time.Millisecond)

	rep := m.Replicas("a")[0]
	algo := m.algo.(*recordingAlgo)
	algo.plan = core.Plan{Actions: []core.Action{
		core.Resize(rep.ID, resources.Vector{CPU: 2.5, MemMB: 600}),
		core.StartOn(0, "node-2", resources.Vector{CPU: 1, MemMB: 512}),
	}}
	m.Poll(10 * time.Second)

	if rep.Alloc.CPU != 2.5 {
		t.Errorf("vertical not applied: %v", rep.Alloc)
	}
	if got := len(m.Replicas("a")); got != 3 {
		t.Errorf("replicas = %d after scale-out, want 3", got)
	}
	counts := m.Counts()
	if counts.Vertical != 1 || counts.ScaleOuts != 3 { // 2 initial + 1
		t.Errorf("counts = %+v", counts)
	}
}

func TestScaleInReportsRemovalFailures(t *testing.T) {
	cl, m := setup(t, nil)
	_ = m.AddService(spec("a"), 0.5)
	_ = m.DeployInitial("a", 0)
	cl.Advance(time.Second, 100*time.Millisecond)

	var killed []*workload.Request
	m.onRemoval = func(r *workload.Request) { killed = append(killed, r) }

	victim := m.Replicas("a")[0]
	victim.Enqueue(workload.NewRequest(1, spec("a"), 0))
	victim.Enqueue(workload.NewRequest(2, spec("a"), 0))

	algo := m.algo.(*recordingAlgo)
	algo.plan = core.Plan{Actions: []core.Action{core.Remove(victim.ID)}}
	m.Poll(10 * time.Second)

	if len(killed) != 2 {
		t.Errorf("removal failures = %d, want 2", len(killed))
	}
	if got := len(m.Replicas("a")); got != 1 {
		t.Errorf("replicas = %d, want 1", got)
	}
	if m.Counts().ScaleIns != 1 {
		t.Errorf("ScaleIns = %d", m.Counts().ScaleIns)
	}
}

func TestApplyIgnoresBogusActions(t *testing.T) {
	cl, m := setup(t, nil)
	_ = m.AddService(spec("a"), 0.5)
	_ = m.DeployInitial("a", 0)
	cl.Advance(time.Second, 100*time.Millisecond)

	algo := m.algo.(*recordingAlgo)
	algo.plan = core.Plan{Actions: []core.Action{
		core.StartOn(0, "ghost-node", resources.Vector{CPU: 1, MemMB: 10}),
	}}
	m.Poll(10 * time.Second) // must not panic
	if m.Counts().PlacementFailures != 1 {
		t.Errorf("PlacementFailures = %d, want 1 (unknown node)", m.Counts().PlacementFailures)
	}
}

// TestApplyRejectsForeignPlans: Apply resolves a vertical or scale-in only
// through the replica ordinal it carries and a scale-out through its
// service ordinal, so a plan not decided from the monitor's latest
// snapshot, an action on a container that snapshot does not list, or a
// scale-out of a service the arbiter does not home is a caller bug and
// panics.
func TestApplyRejectsForeignPlans(t *testing.T) {
	_, m := setup(t, nil)
	_ = m.AddService(spec("a"), 0.5)
	_ = m.DeployInitial("a", 0)
	rep := m.Replicas("a")[0]
	grow := resources.Vector{CPU: 2, MemMB: 512}
	mustPanic := func(what string, plan core.Plan) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Apply did not panic", what)
			}
		}()
		m.Apply(plan, time.Second)
	}
	mustPanic("hand-built plan", core.Plan{Actions: []core.Action{core.Resize(rep.ID, grow)}})
	stale := fillOrdinals(m.Snapshot(time.Second), core.Plan{Actions: []core.Action{core.Resize(rep.ID, grow)}})
	snap := m.Snapshot(2 * time.Second)
	mustPanic("plan from an older snapshot", stale)
	mustPanic("container the snapshot does not list", fillOrdinals(snap, core.Plan{Actions: []core.Action{core.Remove("ghost")}}))
	mustPanic("scale-out of an unregistered service", fillOrdinals(snap, core.Plan{Actions: []core.Action{core.StartOn(1, "node-0", grow)}}))
	if rep.Alloc == grow || m.Counts() != (ActionCounts{ScaleOuts: 2}) {
		t.Errorf("a rejected plan acted: alloc %v, counts %+v", rep.Alloc, m.Counts())
	}
	m.Apply(fillOrdinals(snap, core.Plan{Actions: []core.Action{core.Resize(rep.ID, grow)}}), 2*time.Second)
	if rep.Alloc != grow {
		t.Errorf("plan from the latest snapshot not applied: alloc %v", rep.Alloc)
	}
}

func TestSnapshotDropsRemovedReplicas(t *testing.T) {
	cl, m := setup(t, nil)
	_ = m.AddService(spec("a"), 0.5)
	_ = m.DeployInitial("a", 0)
	cl.Advance(time.Second, 100*time.Millisecond)

	victim := m.Replicas("a")[1]
	_, node := cl.FindContainer(victim.ID)
	node.RemoveContainer(victim.ID)

	snap := m.Snapshot(5 * time.Second)
	if got := len(snap.Services[0].Replicas); got != 1 {
		t.Errorf("snapshot replicas = %d, want 1", got)
	}
}

func TestStartReplicaManualPlacement(t *testing.T) {
	_, m := setup(t, nil)
	_ = m.AddService(spec("a"), 0.5)
	if err := m.StartReplica("a", "node-1", resources.Vector{CPU: 0.5, MemMB: 256}, 0); err != nil {
		t.Fatal(err)
	}
	reps := m.Replicas("a")
	if len(reps) != 1 || reps[0].NodeID != "node-1" || reps[0].Alloc.CPU != 0.5 {
		t.Errorf("manual placement wrong: %+v", reps)
	}
	if err := m.StartReplica("nope", "node-1", resources.Vector{CPU: 1, MemMB: 1}, 0); err == nil {
		t.Error("unknown service accepted")
	}
}

func TestReplicaIDsAreUniqueAcrossRestart(t *testing.T) {
	cl, m := setup(t, nil)
	_ = m.AddService(spec("a"), 0.5)
	_ = m.DeployInitial("a", 0)
	cl.Advance(time.Second, 100*time.Millisecond)

	first := m.Replicas("a")[0].ID
	algo := m.algo.(*recordingAlgo)
	algo.plan = core.Plan{Actions: []core.Action{core.Remove(first)}}
	m.Poll(5 * time.Second)
	algo.plan = core.Plan{Actions: []core.Action{
		core.StartOn(0, "node-0", resources.Vector{CPU: 1, MemMB: 512}),
	}}
	m.Poll(10 * time.Second)

	seen := make(map[string]bool)
	for _, r := range m.Replicas("a") {
		if seen[r.ID] {
			t.Fatalf("duplicate replica ID %s", r.ID)
		}
		seen[r.ID] = true
		if r.ID == first {
			t.Fatalf("replica ID %s reused", first)
		}
	}
}

func TestSnapshotUsageComesFromSamples(t *testing.T) {
	cl, m := setup(t, nil)
	_ = m.AddService(spec("a"), 0.5)
	_ = m.DeployInitial("a", 0)
	cl.Advance(time.Second, 100*time.Millisecond)

	rep := m.Replicas("a")[0]
	rep.SetLastUsage(container.Usage{CPU: 0.7, MemMB: 200})
	m.Sample()

	snap := m.Snapshot(5 * time.Second)
	found := false
	for _, r := range snap.Services[0].Replicas {
		if r.ContainerID == rep.ID {
			found = true
			if r.Usage.CPU != 0.7 {
				t.Errorf("usage = %v, want 0.7", r.Usage.CPU)
			}
		}
	}
	if !found {
		t.Fatal("replica missing from snapshot")
	}
}

func TestStatefulScaleOutPaysSyncDelay(t *testing.T) {
	_, m := setup(t, nil)
	m.startDelay = time.Second
	stateful := spec("a")
	stateful.StateSyncMB = 250 // 10s at 200 Mbps
	_ = m.AddService(stateful, 0.5)
	_ = m.DeployInitial("a", 0) // warm, no delay

	algo := m.algo.(*recordingAlgo)
	algo.plan = core.Plan{Actions: []core.Action{
		core.StartOn(0, "node-2", resources.Vector{CPU: 1, MemMB: 512}),
	}}
	m.Poll(0)

	fresh := m.Replicas("a")[2]
	// ReadyAt = start delay (1s) + sync (10s).
	if fresh.ReadyAt != 11*time.Second {
		t.Errorf("ReadyAt = %v, want 11s (start delay + state sync)", fresh.ReadyAt)
	}
}

func TestDetachAttachNode(t *testing.T) {
	cl, m := setup(t, nil)
	before := len(m.Snapshot(0).Nodes)
	m.DetachNode("node-2")
	if got := len(m.Snapshot(0).Nodes); got != before-1 {
		t.Errorf("nodes after detach = %d, want %d", got, before-1)
	}
	m.DetachNode("ghost") // no-op
	m.AttachNode(cl.Node("node-2"))
	if got := len(m.Snapshot(0).Nodes); got != before {
		t.Errorf("nodes after attach = %d, want %d", got, before)
	}
	m.AttachNode(cl.Node("node-2")) // duplicate: no-op
	if got := len(m.Snapshot(0).Nodes); got != before {
		t.Errorf("nodes after duplicate attach = %d", got)
	}
}

// TestJournalResolvesActionTargets pins what vertical and scale-in decisions
// journal as their Service and Node: the action's service, resolved through
// its service ordinal, and the target's host while it lives, resolved once
// per action through its replica ordinal. Once the container is gone (the
// moot case), Node is empty.
func TestJournalResolvesActionTargets(t *testing.T) {
	_, m := setup(t, nil)
	m.journal = obs.NewJournal()
	_ = m.AddService(spec("a"), 0.5)
	_ = m.DeployInitial("a", 0)
	reps := m.Replicas("a")
	keep, victim := reps[0], reps[1]
	keepNode, victimNode := keep.NodeID, victim.NodeID
	if keepNode == "" || victimNode == "" || keepNode == victimNode {
		t.Fatalf("replicas not spread: %q, %q", keepNode, victimNode)
	}

	grow := resources.Vector{CPU: 1.5, MemMB: 512}
	m.Apply(fillOrdinals(m.Snapshot(5*time.Second), core.Plan{Actions: []core.Action{
		core.Resize(keep.ID, grow),
		core.Remove(victim.ID),
		// The victim is gone by now: both follow-ups are moot.
		core.Resize(victim.ID, grow),
		core.Remove(victim.ID),
	}}), 5*time.Second)

	want := []obs.Decision{
		{Kind: obs.KindVertical, Container: keep.ID, Service: "a", Node: keepNode, Outcome: obs.OutcomeApplied},
		{Kind: obs.KindScaleIn, Container: victim.ID, Service: "a", Node: victimNode, Outcome: obs.OutcomeApplied},
		{Kind: obs.KindVertical, Container: victim.ID, Service: "a", Node: "", Outcome: obs.OutcomeMoot},
		{Kind: obs.KindScaleIn, Container: victim.ID, Service: "a", Node: "", Outcome: obs.OutcomeMoot},
	}
	got := m.journal.Decisions()
	if len(got) != len(want) {
		t.Fatalf("journaled %d decisions, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Kind != w.Kind || g.Container != w.Container || g.Service != w.Service || g.Node != w.Node || g.Outcome != w.Outcome {
			t.Errorf("decision %d = {%v %s svc=%q node=%q %v}, want {%v %s svc=%q node=%q %v}",
				i, g.Kind, g.Container, g.Service, g.Node, g.Outcome, w.Kind, w.Container, w.Service, w.Node, w.Outcome)
		}
	}
	if keep.Alloc != grow {
		t.Errorf("resized replica alloc = %v, want %v", keep.Alloc, grow)
	}
}
