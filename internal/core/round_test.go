package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"hyscale/internal/core"
	"hyscale/internal/resources"
	"hyscale/internal/scalermgr"
)

// TestRoundCreditAsymmetry pins the ledger rule that tells the algorithms
// apart within one round: service a is above its maximum and gives up a
// replica on the only node, which has nothing left; service b, planned
// after it, needs its first replica. HyScale credits the removed replica's
// allocation back, so b lands on the freed capacity. Kubernetes and the
// manager do not, so b stays unplaced until the next round sees the freed
// node.
func TestRoundCreditAsymmetry(t *testing.T) {
	alloc := resources.Vector{CPU: 1, MemMB: 512}
	snap := core.Snapshot{
		Now: 10 * time.Second,
		Services: []core.ServiceStats{
			{
				Info: core.ServiceInfo{Name: "a", Ord: 0, MinReplicas: 1, MaxReplicas: 1, TargetUtil: 0.5,
					BaselineMemMB: 100, InitialAlloc: alloc},
				Replicas: []core.ReplicaStats{
					{ContainerID: "a-0", NodeID: "n1", Requested: alloc, Usage: alloc.Scale(0.5), Routable: true},
					{ContainerID: "a-1", NodeID: "n1", Requested: alloc, Usage: alloc.Scale(0.5), Routable: true},
				},
			},
			{Info: core.ServiceInfo{Name: "b", Ord: 1, MinReplicas: 1, MaxReplicas: 2, TargetUtil: 0.5,
				BaselineMemMB: 100, InitialAlloc: alloc}},
		},
		Nodes: []core.NodeStats{{
			ID:        "n1",
			Capacity:  resources.Vector{CPU: 2, MemMB: 4096, NetMbps: 1000},
			Available: resources.Vector{CPU: 0, MemMB: 3072, NetMbps: 1000},
			Hosts:     []string{"a"},
		}},
	}
	snap.IndexHosts()
	// a-1 is the snapshot's second replica and n1 its first node; a planned
	// action carries those ordinals and its service's.
	scaleIn := core.Remove("a-1")
	scaleIn.Svc, scaleIn.Replica = 1, 2
	scaleOut := core.StartOn(1, "n1", alloc)
	scaleOut.Node = 1
	cfg := core.DefaultConfig()
	mgr, err := scalermgr.New(cfg, scalermgr.Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		algo core.Algorithm
		want []core.Action
	}{
		{core.NewKubernetes(cfg), []core.Action{scaleIn}},
		{mgr, []core.Action{scaleIn}},
		{core.NewHyScaleCPU(cfg), []core.Action{scaleIn, scaleOut}},
	}
	for _, c := range cases {
		if got := c.algo.Decide(snap).Actions; !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: plan %+v, want %+v", c.algo.Name(), got, c.want)
		}
	}
}

// absentHostSnapshot builds the snapshot TestRoundAbsentHostLedger plans:
// every replica runs on a host the snapshot does not list (a stale, blanked
// or limbo node). Service a's replica and service b's replica share host
// "ghost"; service c's replica runs alone on host "void". Node n1, the only
// listed node, already hosts b and c, so neither may scale out onto it.
func absentHostSnapshot() core.Snapshot {
	info := func(name string) core.ServiceInfo {
		return core.ServiceInfo{Name: name, Ord: int(name[0] - 'a'), MinReplicas: 1, MaxReplicas: 3, TargetUtil: 0.5,
			BaselineMemMB: 100, InitialAlloc: resources.Vector{CPU: 0.5, MemMB: 512}}
	}
	replica := func(id, node string, reqCPU, useCPU float64) core.ReplicaStats {
		return core.ReplicaStats{ContainerID: id, NodeID: node, Routable: true,
			Requested: resources.Vector{CPU: reqCPU, MemMB: 512},
			Usage:     resources.Vector{CPU: useCPU, MemMB: 256}}
	}
	snap := core.Snapshot{
		Now: 10 * time.Second,
		Services: []core.ServiceStats{
			{Info: info("a"), Replicas: []core.ReplicaStats{replica("a-0", "ghost", 3, 0.45)}},
			{Info: info("b"), Replicas: []core.ReplicaStats{replica("b-0", "ghost", 0.5, 0.9)}},
			{Info: info("c"), Replicas: []core.ReplicaStats{replica("c-0", "void", 0.5, 0.9)}},
		},
		Nodes: []core.NodeStats{{
			ID:        "n1",
			Capacity:  resources.Vector{CPU: 8, MemMB: 8192, NetMbps: 1000},
			Available: resources.Vector{CPU: 4, MemMB: 4096, NetMbps: 1000},
			Hosts:     []string{"b", "c"},
		}},
	}
	snap.IndexHosts()
	return snap
}

// planLines renders a plan decided from snap one action per line, naming a
// scale-out's service.
func planLines(snap core.Snapshot, p core.Plan) []string {
	var out []string
	for _, a := range p.Actions {
		switch a.Kind {
		case core.ScaleOut:
			out = append(out, fmt.Sprintf("out %s -> %s %v", serviceNamed(snap, a.Svc), a.NodeID, a.Alloc))
		case core.ScaleIn:
			out = append(out, "in "+a.ContainerID)
		case core.VerticalScale:
			out = append(out, fmt.Sprintf("vertical %s %v", a.ContainerID, a.Alloc))
		}
	}
	return out
}

// serviceNamed returns the name of the snapshot service an action's Svc
// ordinal names, "" when none has it.
func serviceNamed(snap core.Snapshot, svc int32) string {
	for _, s := range snap.Services {
		if s.Info.Ord == int(svc)-1 {
			return s.Info.Name
		}
	}
	return ""
}

// TestRoundAbsentHostLedger pins the ledger rule for hosts a snapshot does
// not list. Such a host starts at zero availability, and credits to it are
// visible to later reads of the same host within the round. HyScale's
// reclamation shrinks a-0 from 3 to 1 CPU and credits 2 CPUs to "ghost";
// acquisition then grows b-0, on the same host, by the 1.5 CPUs it needs
// out of that credit. c-0 is as starved as b-0, but its host "void" was never
// credited, so it reads zero and stays as it is; n1's free capacity never
// leaks to either absent host.
func TestRoundAbsentHostLedger(t *testing.T) {
	want := []string{
		"vertical a-0 " + resources.Vector{CPU: 1, MemMB: 512}.String(),
		"vertical b-0 " + resources.Vector{CPU: 2, MemMB: 512}.String(),
	}
	snap := absentHostSnapshot()
	got := planLines(snap, core.NewHyScaleCPU(core.DefaultConfig()).Decide(snap))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("plan %q, want %q", got, want)
	}
}

// refRound is a name-keyed reference ledger: the planning round as it was
// before ordinals, keyed by node and container ID and service name, which
// names lists for each plan action. TestRoundMatchesReference drives it and
// core.Round with the same operations.
type refRound struct {
	snap        core.Snapshot
	binpack     bool
	plan        []core.Action
	names       []string
	avail       map[string]resources.Vector
	count       []int
	removed     map[string]bool
	resized     map[string]resources.Vector
	resizeOrder []string
}

func newRefRound(snap core.Snapshot, binpack bool) *refRound {
	r := &refRound{snap: snap, binpack: binpack, avail: make(map[string]resources.Vector),
		removed: make(map[string]bool), resized: make(map[string]resources.Vector)}
	for _, n := range snap.Nodes {
		r.avail[n.ID] = n.Available
	}
	for _, s := range snap.Services {
		r.count = append(r.count, len(s.Replicas))
	}
	return r
}

func (r *refRound) pick(need resources.Vector, avoid string) string {
	var placed []string
	for i, a := range r.plan {
		if avoid != "" && a.Kind == core.ScaleOut && r.names[i] == avoid {
			placed = append(placed, a.NodeID)
		}
	}
	best, bestCPU := "", 0.0
	for _, n := range r.snap.Nodes {
		if avoid != "" && (slices.Contains(n.Hosts, avoid) || slices.Contains(placed, n.ID)) {
			continue
		}
		a := r.avail[n.ID]
		if !need.FitsIn(a) {
			continue
		}
		if best == "" || (r.binpack && a.CPU < bestCPU) || (!r.binpack && a.CPU > bestCPU) {
			best, bestCPU = n.ID, a.CPU
		}
	}
	return best
}

func (r *refRound) scaleOut(svc int, nodeID string, alloc resources.Vector) {
	r.plan = append(r.plan, core.Action{Kind: core.ScaleOut, NodeID: nodeID, Alloc: alloc})
	r.names = append(r.names, r.snap.Services[svc].Info.Name)
	r.avail[nodeID] = r.avail[nodeID].Sub(alloc).ClampNonNegative()
	r.count[svc]++
}

func (r *refRound) scaleIn(svc int, id string) {
	r.plan = append(r.plan, core.Remove(id))
	r.names = append(r.names, r.snap.Services[svc].Info.Name)
	r.removed[id] = true
	r.count[svc]--
}

func (r *refRound) allocation(rep core.ReplicaStats) resources.Vector {
	if a, ok := r.resized[rep.ContainerID]; ok {
		return a
	}
	return rep.Requested
}

func (r *refRound) resize(id string, alloc resources.Vector) {
	if _, seen := r.resized[id]; !seen {
		r.resizeOrder = append(r.resizeOrder, id)
	}
	r.resized[id] = alloc
}

// finish ends the round, returning the plan and each action's service name.
func (r *refRound) finish() ([]core.Action, []string) {
	for _, id := range r.resizeOrder {
		if !r.removed[id] {
			r.plan = append(r.plan, core.Resize(id, r.resized[id]))
			for _, s := range r.snap.Services {
				for _, rep := range s.Replicas {
					if rep.ContainerID == id {
						r.names = append(r.names, s.Info.Name)
					}
				}
			}
		}
	}
	return r.plan, r.names
}

// randomRoundSnapshot builds a snapshot whose replicas run on listed nodes,
// on unlisted hosts several replicas share, and on unlisted hosts of their
// own; some listed nodes host nothing and some are unlisted by the time the
// snapshot is taken.
func randomRoundSnapshot(rng *rand.Rand) core.Snapshot {
	vec := func() resources.Vector {
		return resources.Vector{CPU: float64(rng.Intn(9)) / 2, MemMB: float64(256 * rng.Intn(9)), NetMbps: float64(100 * rng.Intn(4))}
	}
	snap := core.Snapshot{Now: time.Duration(rng.Intn(100)) * time.Second}
	hosts := []string{"lost-a", "lost-b"}
	listed := map[string]bool{}
	for i := 0; i < 1+rng.Intn(6); i++ {
		id := fmt.Sprintf("n%d", i)
		hosts = append(hosts, id)
		if rng.Intn(5) == 0 {
			continue // the host exists but the snapshot leaves it out
		}
		listed[id] = true
		snap.Nodes = append(snap.Nodes, core.NodeStats{ID: id, Capacity: resources.Vector{CPU: 8, MemMB: 8192}, Available: vec()})
	}
	for s := 0; s < 1+rng.Intn(5); s++ {
		name := fmt.Sprintf("s%d", s)
		// Ords that are not snapshot indexes, so a mix-up of the two shows.
		svc := core.ServiceStats{Info: core.ServiceInfo{Name: name, Ord: 2*s + 1, MinReplicas: 1, MaxReplicas: 6,
			TargetUtil: 0.5, InitialAlloc: vec()}}
		for j := 0; j < rng.Intn(5); j++ {
			host := hosts[rng.Intn(len(hosts))]
			if rng.Intn(6) == 0 {
				host = fmt.Sprintf("alone-%s-%d", name, j)
			}
			svc.Replicas = append(svc.Replicas, core.ReplicaStats{ContainerID: fmt.Sprintf("%s-%d", name, j),
				NodeID: host, Requested: vec(), Routable: true})
			if listed[host] {
				for i := range snap.Nodes {
					if snap.Nodes[i].ID == host && !slices.Contains(snap.Nodes[i].Hosts, name) {
						snap.Nodes[i].Hosts = append(snap.Nodes[i].Hosts, name)
					}
				}
			}
		}
		snap.Services = append(snap.Services, svc)
	}
	snap.IndexHosts()
	return snap
}

// TestRoundMatchesReference drives the ordinal Round and the name-keyed
// reference through the same random sequences of Credit, Debit, Resize,
// ScaleIn, ScaleOut, AddReplicas, RemoveNewest and Pick (with and without
// avoid, under spread and binpack), over snapshots with unlisted and shared
// unlisted hosts. After every operation each ledger read, count, removal
// and allocation must agree, and the plans must agree action for action,
// with every ordinal naming the action's target and service. One Round serves every
// sequence, as one algorithm's does.
func TestRoundMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	var rd core.Round
	for seq := 0; seq < 400; seq++ {
		snap := randomRoundSnapshot(rng)
		binpack := rng.Intn(2) == 0
		placement := core.PlacementSpread
		if binpack {
			placement = core.PlacementBinPack
		}
		rd.Reset(snap, placement)
		ref := newRefRound(snap, binpack)
		type pos struct{ svc, j int }
		var reps []pos
		for i, s := range snap.Services {
			for j := range s.Replicas {
				reps = append(reps, pos{i, j})
			}
		}
		vec := func() resources.Vector {
			return resources.Vector{CPU: float64(rng.Intn(5)) / 4, MemMB: float64(128 * rng.Intn(5))}
		}
		for op := 0; op < 60; op++ {
			svc := rng.Intn(len(snap.Services))
			var p pos
			var rep core.ReplicaStats
			if len(reps) > 0 {
				p = reps[rng.Intn(len(reps))]
				rep = snap.Services[p.svc].Replicas[p.j]
			}
			switch k := rng.Intn(8); {
			case k == 0 && len(reps) > 0:
				v := vec()
				rd.Credit(rep.Slot, v)
				ref.avail[rep.NodeID] = ref.avail[rep.NodeID].Add(v)
			case k == 1 && len(reps) > 0:
				v := vec()
				rd.Debit(rep.Slot, v)
				ref.avail[rep.NodeID] = ref.avail[rep.NodeID].Sub(v)
			case k == 2 && len(reps) > 0:
				v := vec()
				rd.Resize(p.svc, p.j, v)
				ref.resize(rep.ContainerID, v)
			case k == 3 && len(reps) > 0 && !rd.Removed(p.svc, p.j):
				rd.ScaleIn(p.svc, p.j)
				ref.scaleIn(p.svc, rep.ContainerID)
			case k == 4:
				avoid, avoidSvc := "", -1
				if rng.Intn(2) == 0 {
					avoid, avoidSvc = snap.Services[svc].Info.Name, svc
				}
				need := vec()
				node := rd.Pick(need, avoidSvc)
				want := ref.pick(need, avoid)
				if (node < 0 && want != "") || (node >= 0 && snap.Nodes[node].ID != want) {
					t.Fatalf("seq %d op %d: Pick(%v, %q) = %d, reference %q", seq, op, need, avoid, node, want)
				}
				if node >= 0 && rng.Intn(2) == 0 {
					alloc := vec()
					rd.ScaleOut(svc, node, alloc)
					ref.scaleOut(svc, want, alloc)
				}
			case k == 5:
				n := rng.Intn(3)
				placed := rd.AddReplicas(svc, n)
				want := 0
				for ; want < n; want++ {
					id := ref.pick(snap.Services[svc].Info.InitialAlloc, "")
					if id == "" {
						break
					}
					ref.scaleOut(svc, id, snap.Services[svc].Info.InitialAlloc)
				}
				if placed != want {
					t.Fatalf("seq %d op %d: AddReplicas placed %d, reference %d", seq, op, placed, want)
				}
			case k == 6 && rng.Intn(4) == 0:
				n := rng.Intn(2)
				rd.RemoveNewest(svc, n)
				reps := snap.Services[svc].Replicas
				for i := 0; i < n && i < len(reps); i++ {
					ref.scaleIn(svc, reps[len(reps)-1-i].ContainerID)
				}
			}
			for i, n := range snap.Nodes {
				if got, want := rd.Available(i), ref.avail[n.ID]; got != want {
					t.Fatalf("seq %d op %d: node %s available %v, reference %v", seq, op, n.ID, got, want)
				}
			}
			for _, q := range reps {
				r := snap.Services[q.svc].Replicas[q.j]
				if got, want := rd.Available(r.Slot), ref.avail[r.NodeID]; got != want {
					t.Fatalf("seq %d op %d: host %s of %s available %v, reference %v", seq, op, r.NodeID, r.ContainerID, got, want)
				}
				if rd.Removed(q.svc, q.j) != ref.removed[r.ContainerID] {
					t.Fatalf("seq %d op %d: %s removed %v, reference %v", seq, op, r.ContainerID, rd.Removed(q.svc, q.j), ref.removed[r.ContainerID])
				}
				if got, want := rd.Allocation(q.svc, q.j), ref.allocation(r); got != want {
					t.Fatalf("seq %d op %d: %s allocation %v, reference %v", seq, op, r.ContainerID, got, want)
				}
			}
			for i := range snap.Services {
				if rd.Count(i) != ref.count[i] {
					t.Fatalf("seq %d op %d: service %d count %d, reference %d", seq, op, i, rd.Count(i), ref.count[i])
				}
			}
		}
		got := rd.Plan().Actions
		want, names := ref.finish()
		if len(got) != len(want) {
			t.Fatalf("seq %d: plan has %d actions, reference %d", seq, len(got), len(want))
		}
		for i, a := range got {
			named := a
			named.Svc, named.Replica, named.Node = 0, 0, 0
			if named != want[i] {
				t.Fatalf("seq %d: action %d is %+v, reference %+v", seq, i, a, want[i])
			}
			if serviceNamed(snap, a.Svc) != names[i] {
				t.Fatalf("seq %d: action %d carries service ordinal %d, reference service %s", seq, i, a.Svc-1, names[i])
			}
			switch a.Kind {
			case core.ScaleOut:
				if a.Node < 1 || snap.Nodes[a.Node-1].ID != a.NodeID {
					t.Fatalf("seq %d: scale-out to %s carries node ordinal %d", seq, a.NodeID, a.Node)
				}
			default:
				if a.Replica < 1 || int(a.Replica) > len(reps) {
					t.Fatalf("seq %d: action on %s carries replica ordinal %d", seq, a.ContainerID, a.Replica)
				}
				q := reps[a.Replica-1]
				if id := snap.Services[q.svc].Replicas[q.j].ContainerID; id != a.ContainerID {
					t.Fatalf("seq %d: action on %s carries the ordinal of %s", seq, a.ContainerID, id)
				}
			}
		}
	}
}

// TestIndexHostsRejectsSharedOrd: two services of one snapshot with the same
// Ord would share an algorithm's per-service memory, so IndexHosts, which
// every hand-built snapshot calls, refuses them.
func TestIndexHostsRejectsSharedOrd(t *testing.T) {
	snap := core.Snapshot{Services: []core.ServiceStats{
		{Info: core.ServiceInfo{Name: "a", Ord: 3}},
		{Info: core.ServiceInfo{Name: "b", Ord: 3}},
	}}
	defer func() {
		if recover() == nil {
			t.Error("IndexHosts accepted two services with ordinal 3")
		}
	}()
	snap.IndexHosts()
}
