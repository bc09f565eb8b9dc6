// Package cluster models the physical machines of the paper's testbed: a set
// of (possibly heterogeneous) nodes, each with a CPU/memory/NIC capacity,
// hosting Docker containers. The package owns the per-tick physics —
// weighted processor sharing with co-location contention (§III-A), the swap
// cliff (§III-B), and NIC tx-queue contention (§III-C) — so that every
// scaling algorithm is judged against the same physical effects the paper
// measured.
package cluster

import (
	"fmt"
	"time"

	"hyscale/internal/container"
	"hyscale/internal/netem"
	"hyscale/internal/resources"
	"hyscale/internal/workload"
)

// NodeConfig describes one machine.
type NodeConfig struct {
	// ID uniquely identifies the node.
	ID string
	// Capacity is the machine's total resources. The paper's nodes have
	// 4 cores, 8192 MiB and a shared NIC.
	Capacity resources.Vector
	// Net is the NIC model (line rate + tx-queue contention).
	Net netem.Model
	// CPUContention is the co-location contention coefficient, calibrated
	// for a four-core machine: with k CPU-active containers on 4 cores,
	// delivered CPU is derated by 1/(1+c·(k−1)). Larger machines interfere
	// less per extra container, so the effective coefficient scales by
	// 4/cores. The paper measured a 17 % response-time increase with one
	// co-located contender on its 4-core nodes, i.e. c ≈ 0.17 (we use 0.13
	// because queueing amplifies the per-request slowdown into the measured
	// response-time increase).
	CPUContention float64
	// SwapPenalty divides a swapping container's CPU progress (and observed
	// CPU usage, since the process stalls in iowait). Must be >= 1.
	SwapPenalty float64
}

// DefaultNodeConfig returns a node shaped like the paper's cluster machines.
func DefaultNodeConfig(id string) NodeConfig {
	return NodeConfig{
		ID:            id,
		Capacity:      resources.Vector{CPU: 4, MemMB: 8192, NetMbps: 1000},
		Net:           netem.DefaultModel(),
		CPUContention: 0.13,
		SwapPenalty:   8,
	}
}

// Node is one machine. All methods must be called from the simulation
// goroutine.
type Node struct {
	cfg NodeConfig

	// containers preserves insertion order for deterministic iteration;
	// byID provides O(1) lookup.
	containers []*container.Container
	byID       map[string]*container.Container

	// version counts container set changes (adds and removals), letting the
	// Monitor skip rebuilding per-node snapshot state when nothing moved.
	version uint64

	// pool issues Container.Slot and carries the occupancy generation: the
	// creating cluster's pool, or a private one for a node built outside
	// any cluster.
	pool *pool
	// ord is the node's ordinal in its pool (see Ord).
	ord int

	// memo remembers the last fully computed idle tick (see advance).
	memo idleMemo
}

// scratch holds one tick's working buffers. Nodes tick one at a time, so a
// cluster shares one scratch across all of them: it stays cache-hot, and
// steady-state physics ticks allocate nothing. tallies holds each
// container's Tally for the tick, indexed like the node's containers.
type scratch struct {
	tallies  []container.Tally
	flows    []netem.Flow
	rates    []float64
	claims   []cpuClaimant
	netAlloc netem.Allocator
}

// idleMemo is the input set and output of the node's last fully computed
// idle tick: one that began with every container Running and nothing in
// flight. While a tick begins in that state with the same inputs, the
// physics is a pure function of them, so the usage samples repeat bit for
// bit and advance replays them instead of recomputing.
type idleMemo struct {
	valid   bool
	version uint64
	dt      time.Duration
	entries []memoEntry // indexed like the node's containers
}

// memoEntry is one container's allocation and usage sample in the memoised
// tick.
type memoEntry struct {
	alloc resources.Vector
	usage container.Usage
}

// Validate reports whether cfg describes a machine NewNode can build: an
// ID, positive CPU and memory capacity, a SwapPenalty of at least 1 and
// non-negative CPU contention.
func (cfg NodeConfig) Validate() error {
	switch {
	case cfg.ID == "":
		return fmt.Errorf("cluster: node needs an ID")
	case !(cfg.Capacity.CPU > 0) || !(cfg.Capacity.MemMB > 0):
		return fmt.Errorf("cluster: node %q needs positive CPU and memory capacity", cfg.ID)
	case !(cfg.SwapPenalty >= 1):
		return fmt.Errorf("cluster: node %q needs SwapPenalty >= 1, got %v", cfg.ID, cfg.SwapPenalty)
	case !(cfg.CPUContention >= 0):
		return fmt.Errorf("cluster: node %q has negative CPUContention", cfg.ID)
	}
	return nil
}

// NewNode builds a node from cfg, which must pass Validate.
func NewNode(cfg NodeConfig) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg, byID: make(map[string]*container.Container), pool: newPool()}
	n.ord = n.pool.takeOrd()
	return n, nil
}

// pool is the state a cluster shares with every node it creates and with
// every view that adopts those nodes. It hands out dense container slots,
// reusing released ones first, and versions occupancy: gen moves whenever
// one of its nodes goes empty↔occupied or any sharing cluster's membership
// changes, so each cluster can cache its occupied-node list against it.
type pool struct {
	next int
	free []int
	gen  uint64
	// ords counts the node ordinals issued.
	ords int
}

// newPool starts gen at 1, above the zero gen of a never-built cache.
func newPool() *pool { return &pool{gen: 1} }

func (p *pool) take() int {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	p.next++
	return p.next - 1
}

func (p *pool) release(s int) { p.free = append(p.free, s) }

// takeOrd issues the next node ordinal. Ordinals are never reused.
func (p *pool) takeOrd() int {
	p.ords++
	return p.ords - 1
}

// ID returns the node identifier.
func (n *Node) ID() string { return n.cfg.ID }

// Ord returns the node's ordinal: dense and unique among the nodes of its
// pool, so among every node of one cluster and of the views that adopt its
// nodes, and never reused. A control plane indexes per-node tables by it.
func (n *Node) Ord() int { return n.ord }

// Capacity returns the node's total resources.
func (n *Node) Capacity() resources.Vector { return n.cfg.Capacity }

// Config returns the node configuration.
func (n *Node) Config() NodeConfig { return n.cfg }

// AddContainer places c on this node. The container ID must be unique.
func (n *Node) AddContainer(c *container.Container) error {
	if _, dup := n.byID[c.ID]; dup {
		return fmt.Errorf("cluster: node %s already hosts container %s", n.cfg.ID, c.ID)
	}
	c.NodeID = n.cfg.ID
	c.Slot = n.pool.take()
	if len(n.containers) == 0 {
		n.pool.gen++
	}
	n.containers = append(n.containers, c)
	n.byID[c.ID] = c
	n.version++
	return nil
}

// Version counts container placements and removals on this node. A snapshot
// layer can cache per-node derived state and rebuild it only when the version
// moved.
func (n *Node) Version() uint64 { return n.version }

// RemoveContainer removes the container and returns its killed in-flight
// requests (removal failures). It is a no-op returning nil for unknown IDs.
func (n *Node) RemoveContainer(id string) []*workload.Request {
	c, ok := n.byID[id]
	if !ok {
		return nil
	}
	delete(n.byID, id)
	for i, cc := range n.containers {
		if cc.ID == id {
			n.containers = append(n.containers[:i], n.containers[i+1:]...)
			break
		}
	}
	n.version++
	n.pool.release(c.Slot)
	if len(n.containers) == 0 {
		n.pool.gen++
	}
	return c.Remove()
}

// Container returns the hosted container with the given ID, or nil.
func (n *Node) Container(id string) *container.Container { return n.byID[id] }

// Containers returns the hosted containers in deterministic (insertion)
// order. Callers must not mutate the returned slice.
func (n *Node) Containers() []*container.Container { return n.containers }

// Allocated returns the sum of all hosted containers' allocations.
func (n *Node) Allocated() resources.Vector {
	var v resources.Vector
	for _, c := range n.containers {
		v = v.Add(c.Alloc)
	}
	return v
}

// Available returns capacity minus allocations, floored at zero. This is
// what the node "advertises" to the Monitor for placement decisions.
func (n *Node) Available() resources.Vector {
	return n.cfg.Capacity.Sub(n.Allocated()).ClampNonNegative()
}

// TickResult aggregates what happened on a node (or across the cluster)
// during one physics tick.
type TickResult = container.AdvanceResult

// advance runs dt of physics on this node, appending the tick's
// completions and timeouts to res, with its working buffers in s:
//
//  1. Starting containers that reached their ready time become Running, and
//     each container's Tally is read (kept current by the container, or
//     one pass over its in-flight requests when a release voided it).
//  2. CPU: weighted max-min fair processor sharing across CPU-active
//     containers (weight = CPU request, i.e. Docker cpu-shares), with the
//     node's deliverable CPU derated by co-location contention and each
//     swapping container's progress derated by the swap penalty.
//  3. Network: max-min fair NIC allocation with tc caps and tx-queue
//     contention (see netem).
//  4. Each container advances its in-flight requests.
//
// A tick that begins idle (every container Running, nothing in flight)
// right after an idle tick with the same dt, Version and allocations skips
// steps 2-4 and replays the previous usage samples, which the full
// computation would reproduce bit for bit.
func (n *Node) advance(res *TickResult, now time.Duration, dt time.Duration, s *scratch) {
	if dt <= 0 || len(n.containers) == 0 {
		return
	}
	s.tallies = s.tallies[:0]
	idle := true
	for _, c := range n.containers {
		c.MaybeStart(now)
		if c.State != container.StateRunning || c.Inflight() > 0 {
			idle = false
		}
		s.tallies = append(s.tallies, c.Tally())
	}
	if idle && n.memoHit(dt) {
		for i, c := range n.containers {
			c.SetLastUsage(n.memo.entries[i].usage)
		}
		return
	}

	cpuRates := n.allocateCPU(s)

	s.flows = s.flows[:0]
	for i, c := range n.containers {
		f := netem.Flow{}
		if c.State == container.StateRunning {
			f = netem.Flow{CapMbps: c.Alloc.NetMbps, Count: c.NetFlowCount(s.tallies[i])}
		}
		s.flows = append(s.flows, f)
	}
	netShares := s.netAlloc.Allocate(n.cfg.Net, s.flows)

	for i, c := range n.containers {
		if c.State != container.StateRunning {
			// Starting containers process nothing; keep a zero usage sample.
			c.SetLastUsage(container.Usage{MemMB: 0})
			continue
		}
		c.AdvanceInto(res, s.tallies[i], now, dt, cpuRates[i], netShares[i].RateMbps)
	}
	n.memo.valid = idle
	if idle {
		n.remember(dt)
	}
}

// memoHit reports whether the last fully computed tick was idle with the
// same inputs as this one: the same dt, container set (Version) and
// allocations. Stress demands and service specs are fixed before a
// container is placed, and the node config never changes.
func (n *Node) memoHit(dt time.Duration) bool {
	m := &n.memo
	if !m.valid || m.version != n.version || m.dt != dt {
		return false
	}
	for i, c := range n.containers {
		if c.Alloc != m.entries[i].alloc {
			return false
		}
	}
	return true
}

// remember records the inputs and usage samples of an idle tick just
// computed in full.
func (n *Node) remember(dt time.Duration) {
	m := &n.memo
	m.version, m.dt = n.version, dt
	m.entries = m.entries[:0]
	for _, c := range n.containers {
		m.entries = append(m.entries, memoEntry{alloc: c.Alloc, usage: c.LastUsage()})
	}
}

// cpuClaimant is one running container's demand in the weighted
// water-filling round of allocateCPU.
type cpuClaimant struct {
	idx    int
	weight float64
	demand float64
	rate   float64
	frozen bool
}

// allocateCPU computes the CPU rate delivered to each container this tick.
// The returned slice is indexed like n.containers and lives in s.
func (n *Node) allocateCPU(s *scratch) []float64 {
	if cap(s.rates) < len(n.containers) {
		s.rates = make([]float64, len(n.containers))
	}
	rates := s.rates[:len(n.containers)]
	clear(rates)

	claimants := s.claims[:0]
	active := 0
	for i, c := range n.containers {
		if c.State != container.StateRunning {
			continue
		}
		t := s.tallies[i]
		d := c.CPUDemand(t)
		if d <= 0 {
			continue
		}
		// A swapping container stalls in iowait: it can only make progress —
		// and only occupies the CPU — at a fraction of its demand. The
		// slowdown deepens with how far past the limit the working set is
		// (more of it lives on disk).
		if c.Swapping(t) {
			d /= n.cfg.SwapPenalty * c.SwapDepth(t)
		}
		w := c.Alloc.CPU
		if w <= 0 {
			// Docker gives every container a minimum share; model a tiny
			// weight so zero-request containers still make progress.
			w = 0.01
		}
		claimants = append(claimants, cpuClaimant{idx: i, weight: w, demand: d})
		active++
	}
	s.claims = claimants
	if active == 0 {
		return rates
	}

	// Co-location contention derates the whole node's deliverable CPU. The
	// coefficient is calibrated per 4 cores: bigger machines suffer less
	// interference per extra container.
	contention := n.cfg.CPUContention * 4 / n.cfg.Capacity.CPU
	capacity := n.cfg.Capacity.CPU / (1 + contention*float64(active-1))

	// Weighted water-filling: distribute capacity proportionally to weights;
	// freeze claimants whose demand binds and redistribute the slack
	// (work-conserving, like Docker cpu-shares).
	remaining := capacity
	unfrozen := active
	for unfrozen > 0 && remaining > 1e-12 {
		var weightSum float64
		for _, cl := range claimants {
			if !cl.frozen {
				weightSum += cl.weight
			}
		}
		if weightSum <= 0 {
			break
		}
		progressed := false
		for i := range claimants {
			cl := &claimants[i]
			if cl.frozen {
				continue
			}
			grant := remaining * cl.weight / weightSum
			if cl.rate+grant >= cl.demand {
				extra := cl.demand - cl.rate
				if extra < 0 {
					extra = 0
				}
				cl.rate = cl.demand
				remaining -= extra
				cl.frozen = true
				unfrozen--
				progressed = true
			}
		}
		if !progressed {
			// No demand binds: hand out the final proportional split.
			for i := range claimants {
				cl := &claimants[i]
				if !cl.frozen {
					cl.rate += remaining * cl.weight / weightSum
				}
			}
			remaining = 0
		}
	}

	for _, cl := range claimants {
		rates[cl.idx] = cl.rate
	}
	return rates
}
