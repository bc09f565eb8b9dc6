package monitor

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/faults"
	"hyscale/internal/nodemanager"
)

// decisionState is a deep copy of everything a checkpoint holds, taken the
// direct way — fresh maps and slices, node state keyed by node ID — as the
// reference a restore must reproduce. A node with no report has no Reports
// key, and one with a clean detector record no NodeStates key.
type decisionState struct {
	Retries    []pendingAction
	Reports    map[string]cachedReport
	NodeStates map[string]nodeState
	Lost       []lostReplica
	Replicas   map[string][]replica
}

func captureState(m *Monitor) decisionState {
	s := decisionState{
		Retries:    append([]pendingAction(nil), m.retries...),
		Reports:    map[string]cachedReport{},
		NodeStates: map[string]nodeState{},
		Lost:       append([]lostReplica(nil), m.lost...),
		Replicas:   map[string][]replica{},
	}
	for i := range m.nodes {
		e := &m.nodes[i]
		if e.rep.ok {
			r := cachedReport{rep: e.rep.rep, at: e.rep.at, ok: true}
			r.rep.Containers = append([]nodemanager.ContainerStats(nil), e.rep.rep.Containers...)
			s.Reports[e.nm.NodeID()] = r
		}
		if e.det != (nodeState{}) {
			s.NodeStates[e.nm.NodeID()] = e.det
		}
	}
	for _, st := range m.services {
		var reps []replica
		for k, c := range st.replicas {
			reps = append(reps, replica{c: c, node: st.hosts[k]})
		}
		s.Replicas[st.spec.Name] = reps
	}
	return s
}

// scribble mutates every part of the monitor's live decision state in
// place — the buffers a checkpoint or a restore could alias — and grows
// each.
func scribble(m *Monitor) {
	for i := range m.nodes {
		r := &m.nodes[i].rep
		for i := range r.rep.Containers {
			r.rep.Containers[i].Inflight += 1000
			r.rep.Containers[i].ID = "scribbled"
		}
		r.rep.Containers = append(r.rep.Containers, nodemanager.ContainerStats{ID: "extra"})
		r.at += time.Hour
		r.ok = !r.ok
		st := &m.nodes[i].det
		st.missed += 7
		st.health = NodeDead
	}
	scribbled := &container.Container{ID: "scribbled"}
	for _, st := range m.services {
		for i := range st.replicas {
			st.replicas[i], st.hosts[i] = scribbled, nil
		}
		st.add(scribbled, nil)
	}
	for i := range m.retries {
		m.retries[i].attempts += 5
		m.retries[i].target = replica{c: scribbled}
		m.retries[i].lost = scribbled
	}
	m.retries = append(m.retries, pendingAction{lost: scribbled})
	for i := range m.lost {
		m.lost[i].replaced = !m.lost[i].replaced
		m.lost[i].c = scribbled
	}
	m.lost = append(m.lost, lostReplica{c: scribbled})
}

// TestCheckpointIsolatedFromLiveState checkpoints a monitor with a pending
// reconcile, a lost replica, suspect and dead nodes and cached reports,
// scribbles over its live state and restarts it: the restored state must
// equal a deep copy taken at checkpoint time. A second scribble and restart
// checks that the restore copied out of the checkpoint, and a later
// checkpoint after a node left and another's report and detector record
// were reset checks that overwriting the retained checkpoint in place
// drops them. A node attached after that checkpoint restores with no report
// and a clean record, and after a node listed first leaves, every other node
// restores its own entry.
func TestCheckpointIsolatedFromLiveState(t *testing.T) {
	cl, m := healSetup(t)
	if _, err := cl.RemoveNode("node-0"); err != nil {
		t.Fatal(err)
	}
	m.plane.NoteNodeRemoved("node-0")
	// node-2 misses the polls from 10s on and turns suspect.
	m.faults = faultWindow(faults.KindStats, "node-2", 9*time.Second, time.Hour)
	for _, at := range []time.Duration{5, 10, 15, 20} {
		m.Poll(at * time.Second)
		m.MaybeCheckpoint(at * time.Second)
	}
	want := captureState(m)
	if len(m.retries) == 0 || len(m.lost) == 0 || len(want.Reports) == 0 || len(want.NodeStates) == 0 {
		t.Fatalf("setup left retries=%d lost=%d reports=%d nodeStates=%d, want all non-empty",
			len(m.retries), len(m.lost), len(want.Reports), len(want.NodeStates))
	}
	for i, at := range []time.Duration{22, 23} {
		scribble(m)
		m.Restart(at * time.Second)
		if got := captureState(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("restart %d: restored state differs from the checkpoint-time copy\n got %+v\nwant %+v", i+1, got, want)
		}
	}

	// Overwrite the retained checkpoint after a node left, another node's
	// report and detector record were reset and a service's replica set
	// shrank.
	gone := firstKey(want.Reports)
	m.DetachNode(gone)
	e := m.entry(firstKey(want.NodeStates))
	e.rep.ok, e.det = false, nodeState{}
	m.services[0].truncate(1)
	m.retries = nil
	m.checkpointNow(24 * time.Second)
	want = captureState(m)
	m.AttachNode(cl.Node(gone))
	scribble(m)
	m.Restart(25 * time.Second)
	if got := captureState(m); !reflect.DeepEqual(got, want) {
		t.Fatalf("restart from an overwritten checkpoint differs\n got %+v\nwant %+v", got, want)
	}

	// A node listed before the others leaves after the checkpoint: a restore
	// must give every other node its own checkpointed entry back.
	m.Poll(26 * time.Second)
	m.checkpointNow(26 * time.Second)
	want = captureState(m)
	if len(want.Reports) == 0 || len(want.NodeStates) == 0 {
		t.Fatalf("before the last checkpoint: reports=%d nodeStates=%d, want both non-empty", len(want.Reports), len(want.NodeStates))
	}
	first := m.nodes[0].nm.NodeID()
	m.DetachNode(first)
	delete(want.Reports, first)
	delete(want.NodeStates, first)
	scribble(m)
	m.Restart(27 * time.Second)
	if got := captureState(m); !reflect.DeepEqual(got, want) {
		t.Fatalf("restart after %s left differs\n got %+v\nwant %+v", first, got, want)
	}
}

// firstKey returns m's least key.
func firstKey[V any](m map[string]V) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys[0]
}

// TestCheckpointPollAllocFree is TestPollSteadyStateAllocFree with
// checkpointing on: a steady-state Sample+Poll cycle followed by the
// every-poll checkpoint overwrites the retained checkpoint and allocates
// nothing.
func TestCheckpointPollAllocFree(t *testing.T) {
	cl, err := cluster.NewHomogeneous(6, cluster.DefaultNodeConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	m := soloMonitor(cl, staticAlgo{})
	m.selfHeal = DefaultSelfHealing()
	for _, name := range []string{"a", "b", "c"} {
		if err := m.AddService(spec(name), 0.5); err != nil {
			t.Fatal(err)
		}
		if err := m.DeployInitial(name, 0); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Duration(0)
	cycle := func() {
		now += time.Second
		m.Sample()
		m.Poll(now)
		m.MaybeCheckpoint(now)
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("steady-state Sample+Poll+checkpoint allocates %.1f objects/cycle, want 0", allocs)
	}
	if m.lastCheckpoint == nil || m.lastCheckpointAt != now || len(m.lastCheckpoint.nodes) == 0 {
		t.Fatalf("no checkpoint of the last poll (at %v, want %v)", m.lastCheckpointAt, now)
	}
}
