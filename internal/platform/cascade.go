package platform

import (
	"errors"
	"sort"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/lb"
	"hyscale/internal/obs"
	"hyscale/internal/resilience"
	"hyscale/internal/sim"
	"hyscale/internal/workload"
)

// This file is the call-graph propagation layer: when a World's Config
// declares a CallGraph (or any resilience defense), requests admitted at a
// service spawn downstream calls along the graph's edges, parents wait on
// their children (holding queue slots — back-pressure), failures cascade
// upward with fail-fast semantics, and the resilience.Manager's breakers,
// retry budgets, deadlines and shedding gate every hop. Worlds without a
// graph never construct a graphRun and execute exactly the original code.

// EdgeStats counts one call-graph edge's traffic. Conservation invariant:
// Issued == Delivered + Dropped at every instant (each issued attempt is
// classified at its admission decision).
type EdgeStats struct {
	// Issued counts call attempts on the edge, including retries and
	// breaker short-circuits.
	Issued uint64 `json:"issued"`
	// Delivered counts attempts admitted to a downstream replica.
	Delivered uint64 `json:"delivered"`
	// Dropped counts attempts that never reached a replica: breaker
	// short-circuits, no-deadline-room, shed, queue-full, routing failures.
	Dropped uint64 `json:"dropped"`
}

// CascadeStats aggregates a call-graph run's root-request outcomes and
// per-edge traffic. Conservation invariant after a drained run:
// RootGenerated == RootCompleted + RootShed + RootDeadline + RootFailed.
type CascadeStats struct {
	RootGenerated uint64 `json:"rootGenerated"`
	RootCompleted uint64 `json:"rootCompleted"`
	// RootShed counts roots refused by overload shedding or back-pressure
	// (every replica queue full).
	RootShed uint64 `json:"rootShed"`
	// RootDeadline counts roots abandoned at their deadline.
	RootDeadline uint64 `json:"rootDeadline"`
	// RootFailed counts roots lost to routing failures, replica removal, or
	// a downstream call failing permanently (fail-fast cascade).
	RootFailed uint64               `json:"rootFailed"`
	Edges      map[string]EdgeStats `json:"edges,omitempty"`
}

// EdgeKeys returns the edge keys in sorted order for deterministic output.
func (s CascadeStats) EdgeKeys() []string {
	keys := make([]string, 0, len(s.Edges))
	for k := range s.Edges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// outcome classifies how a tracked request resolved.
type outcome int

const (
	outcomeCompleted outcome = iota
	outcomeShed
	outcomeDeadline
	outcomeFailed
)

// callEdge is one call-graph edge compiled for the hot path when the World
// starts: everything a call needs is resolved once, so issuing, admitting
// and resolving a call costs no string building, hashing or map lookup.
type callEdge struct {
	// ord is the edge's declaration index in the graph: its slot in
	// graphRun.edges and its breaker ordinal in the resilience manager.
	ord int
	// key is the edge identity ("from->to") for reports and breakers.
	key string
	// to is the callee's runtime entry.
	to *serviceRuntime
	// prob and calls are the edge's effective firing probability and
	// fan-out.
	prob  float64
	calls int
	// roll is resilience.RollPrefix(seed, "call|"+key): a call-probability
	// draw finishes the hash with the (parent, slot) suffix only.
	roll uint64
	// stats is the edge's traffic; Stats reports the edges with Issued > 0.
	stats EdgeStats
}

// reqNode tracks one request (root or downstream call attempt) through the
// call graph. Nodes live in the graphRun's slab; a node owns its request's
// release, and both are recycled once nothing can read the node (release).
type reqNode struct {
	req    *workload.Request
	parent *reqNode
	// edge is the call edge a downstream attempt travels, nil for roots.
	edge *callEdge
	slot int
	// cont is the replica holding the request, nil before admission and
	// after the request leaves the container.
	cont    *container.Container
	pending int
	// refs counts the node's references: one for itself until finish, one
	// per unreleased child, one per scheduled retry of one of its call
	// slots, and the guard spawnChildren holds while it runs.
	refs int32
	// handle is the node's slab index + 1, the value its request carries in
	// Request.Node. It survives recycling.
	handle   uint32
	resolved bool
}

// nodeChunkBits sizes the slab's chunks: 256 nodes of 64 bytes each.
const (
	nodeChunkBits = 8
	nodeChunk     = 1 << nodeChunkBits
)

// pendingRetry is one scheduled re-issue of a call slot: attempt #attempt
// of (p, e, slot). Records are free-listed, and the engine event names one
// by its index.
type pendingRetry struct {
	p       *reqNode
	e       *callEdge
	slot    int
	attempt int
}

// graphRun is a World's call-graph state: the live request tree, the
// compiled edges with their counters, and the resilience manager (which may
// be nil when only a graph, no defenses, is configured).
type graphRun struct {
	w     *World
	graph workload.CallGraph
	res   *resilience.Manager

	// chunks is the node slab: fixed-size chunks, so a node's address is
	// stable while the slab grows. free lists the released nodes.
	chunks []*[nodeChunk]reqNode
	free   []*reqNode
	// retries holds the scheduled retries, freeRetries the indexes of the
	// fired ones; fire is fireRetry, bound once.
	retries     []pendingRetry
	freeRetries []int
	fire        sim.IndexedEvent
	// edges holds the compiled edges in declaration order; out lists each
	// service's outgoing edges, in declaration order, by service ordinal.
	// Both are built by checkServices.
	edges []callEdge
	out   [][]*callEdge

	rootGenerated uint64
	rootCompleted uint64
	rootShed      uint64
	rootDeadline  uint64
	rootFailed    uint64
}

func newGraphRun(w *World, graph workload.CallGraph, m *resilience.Manager) *graphRun {
	g := &graphRun{w: w, graph: graph, res: m}
	g.fire = g.fireRetry
	return g
}

// newNode takes a node off the free list for req, a downstream attempt of
// parent's call slot (parent nil for a root), holding its own reference and
// one on parent.
func (g *graphRun) newNode(req *workload.Request, parent *reqNode, e *callEdge, slot int) *reqNode {
	if len(g.free) == 0 {
		chunk := new([nodeChunk]reqNode)
		base := len(g.chunks) << nodeChunkBits
		g.chunks = append(g.chunks, chunk)
		for i := nodeChunk - 1; i >= 0; i-- {
			chunk[i].handle = uint32(base + i + 1)
			g.free = append(g.free, &chunk[i])
		}
	}
	n := g.free[len(g.free)-1]
	g.free = g.free[:len(g.free)-1]
	n.req, n.parent, n.edge, n.slot, n.refs = req, parent, e, slot, 1
	req.Node = uint64(n.handle)
	if parent != nil {
		parent.refs++
	}
	return n
}

// nodeOf returns the unresolved node tracking r, or nil when r is
// untracked.
func (g *graphRun) nodeOf(r *workload.Request) *reqNode {
	if r.Node == 0 {
		return nil
	}
	h := r.Node - 1
	n := &g.chunks[h>>nodeChunkBits][h&(nodeChunk-1)]
	if n.req != r || n.resolved {
		return nil
	}
	return n
}

// release drops one reference to n. The last one returns n's request to
// the World's pool, zeroes n onto the free list and drops n's reference to
// its parent, and so on up the chain.
func (g *graphRun) release(n *reqNode) {
	for n != nil {
		if n.refs--; n.refs > 0 {
			return
		}
		p := n.parent
		g.w.reqs.Put(n.req)
		*n = reqNode{handle: n.handle}
		g.free = append(g.free, n)
		n = p
	}
}

// checkServices verifies every graph endpoint is a registered service and
// compiles the graph into per-service out-edge slices; run once when the
// World starts, after all AddService calls.
func (g *graphRun) checkServices() error {
	known := make(map[string]bool, len(g.w.byName))
	for name := range g.w.byName {
		known[name] = true
	}
	if err := g.graph.Validate(known); err != nil {
		return err
	}
	g.edges = make([]callEdge, len(g.graph.Edges))
	g.out = make([][]*callEdge, len(g.w.services))
	keys := make([]string, len(g.edges))
	for i, e := range g.graph.Edges {
		key := e.Key()
		g.edges[i] = callEdge{
			ord:   i,
			key:   key,
			to:    g.w.byName[e.To],
			prob:  e.EffectiveProb(),
			calls: e.EffectiveCalls(),
			roll:  resilience.RollPrefix(g.w.cfg.Seed, "call|"+key),
		}
		from := g.w.byName[e.From].ord
		g.out[from] = append(g.out[from], &g.edges[i])
		keys[i] = key
	}
	g.res.SetEdges(keys)
	return nil
}

// outEdges returns a service's compiled outgoing edges. Services registered
// after the World started are in no edge.
func (g *graphRun) outEdges(ord int32) []*callEdge {
	if int(ord) >= len(g.out) {
		return nil
	}
	return g.out[ord]
}

// dropEdge books an admission-refused downstream attempt against its edge,
// keeping the Issued == Delivered + Dropped invariant when admit refuses a
// call (routing failure, black-holed backend, shed). Roots have no edge.
func (g *graphRun) dropEdge(n *reqNode) {
	if n.edge != nil {
		n.edge.stats.Dropped++
	}
}

// Stats snapshots the run's cascade counters.
func (g *graphRun) Stats() CascadeStats {
	s := CascadeStats{
		RootGenerated: g.rootGenerated,
		RootCompleted: g.rootCompleted,
		RootShed:      g.rootShed,
		RootDeadline:  g.rootDeadline,
		RootFailed:    g.rootFailed,
		Edges:         make(map[string]EdgeStats),
	}
	// Every call books Issued first, so these are exactly the edges that
	// carried traffic.
	for i := range g.edges {
		if e := &g.edges[i]; e.stats.Issued > 0 {
			s.Edges[e.key] = e.stats
		}
	}
	return s
}

// route enters one externally-generated (root) request into the graph.
func (g *graphRun) route(req *workload.Request) {
	g.rootGenerated++
	g.admit(g.newNode(req, nil, nil, 0))
}

// admit routes a tracked request (root or child) to a replica, applying the
// shedding and fault checks, and spawns its downstream calls on admission.
func (g *graphRun) admit(n *reqNode) {
	w := g.w
	req := n.req
	req.ExtraLatency += w.cfg.BaseLatency
	now := w.engine.Now()

	target, err := w.lb.RouteAt(now, req, w.ctl.RouteView(int(req.ServiceOrd), &w.replicaBuf))
	if err != nil {
		g.dropEdge(n)
		switch {
		case errors.Is(err, lb.ErrAllFull):
			// Back-pressure: the saturated tier refuses the admission.
			g.res.CountShed()
			g.finish(n, outcomeShed, now, workload.FailureConnection)
		case errors.Is(err, lb.ErrAllStarting):
			w.connFail.Starting++
			g.finish(n, outcomeFailed, now, workload.FailureConnection)
		default:
			w.connFail.Absent++
			g.finish(n, outcomeFailed, now, workload.FailureConnection)
		}
		return
	}
	if w.faults.BackendDown(now, target.Service, target.ID) {
		w.connFail.Unhealthy++
		g.dropEdge(n)
		g.finish(n, outcomeFailed, now, workload.FailureConnection)
		return
	}
	// Adaptive shedding keys off active-queue occupancy, not CPU-over-
	// allocation: replicas legitimately burst past their allocation when the
	// node has slack, but an active queue deeper than the deadline can drain
	// is doomed work whatever the CPU counters say. PhaseWait parents are
	// excluded — they hold slots, not resources.
	if lim := target.Spec.QueueLimit; lim > 0 {
		occ := float64(target.ActiveInflight()) / float64(lim)
		if g.res.ShouldShed(occ, target.ID, req.ID) {
			g.dropEdge(n)
			g.finish(n, outcomeShed, now, workload.FailureConnection)
			return
		}
	}
	if f := w.faults.SlowFactor(now, req.Service); f > 1 {
		req.RemainingCPU *= f
	}

	n.cont = target
	target.Enqueue(req)
	if n.edge != nil {
		n.edge.stats.Delivered++
	}
	g.spawnChildren(n)
}

// spawnChildren issues the node's downstream calls per its service's
// outgoing edges. Probabilistic edges draw from a pure (seed, edge, parent)
// hash, never the engine RNG, so enabling a graph does not perturb arrivals.
//
// A child's synchronous fail-fast can resolve n inside the loop and drop
// its last other reference, so the loop holds a guard reference on n.
func (g *graphRun) spawnChildren(n *reqNode) {
	edges := g.outEdges(n.req.ServiceOrd)
	if len(edges) == 0 {
		return
	}
	n.refs++
calls:
	for _, e := range edges {
		for k := 0; k < e.calls; k++ {
			if n.resolved {
				break calls // a sibling call already failed the parent fast
			}
			if e.prob < 1 && resilience.RollFrom(e.roll, n.req.ID<<8|uint64(k&0xff)) >= e.prob {
				continue
			}
			n.pending++
			n.req.PendingChildren++
			g.issueCall(n, e, k, 1)
		}
	}
	g.release(n)
}

// issueCall issues attempt #attempt of one call slot (parent, edge, slot):
// breaker gate, deadline math, then a fresh child request through admit.
func (g *graphRun) issueCall(p *reqNode, e *callEdge, slot, attempt int) {
	now := g.w.engine.Now()
	es := &e.stats

	if !g.res.AllowCall(now, e.ord) {
		// Short-circuited by an open breaker: fail fast, never retried, and
		// the downstream tier sees nothing.
		es.Issued++
		es.Dropped++
		g.failFast(p, now)
		return
	}
	rt := e.to
	deadline := g.res.ChildDeadline(now, p.req.Deadline, rt.spec.Timeout)
	if deadline <= now {
		// The propagated deadline leaves no room: starting the call could
		// never help the root request.
		es.Issued++
		es.Dropped++
		g.res.CountDeadlineExceeded()
		g.failFast(p, now)
		return
	}
	es.Issued++
	g.res.RecordAttempt(int(p.req.ServiceOrd), attempt)

	req := g.w.reqs.New(g.w.ids.Next(), &rt.spec, rt.ord, now)
	req.Deadline = deadline
	req.Attempt = attempt
	g.admit(g.newNode(req, p, e, slot))
}

// finish resolves one tracked request with a terminal outcome and drops
// the node's own reference. Exactly one finish per request keeps the
// recorder's conservation invariant intact; class selects the failure class
// recorded for non-completions.
func (g *graphRun) finish(n *reqNode, o outcome, at time.Duration, class workload.FailureClass) {
	if n.resolved {
		return
	}
	n.resolved = true
	w := g.w

	if o == outcomeCompleted {
		lat := at - n.req.Arrival + n.req.ExtraLatency
		if lat < 0 {
			lat = 0
		}
		w.recorder.RecordCompletion(w.statsOf(n.req), lat)
		w.costs.ObserveCompletion(lat)
	} else {
		w.fail(n.req, class)
	}

	if n.parent == nil {
		switch o {
		case outcomeCompleted:
			g.rootCompleted++
		case outcomeShed:
			g.rootShed++
		case outcomeDeadline:
			g.rootDeadline++
		default:
			g.rootFailed++
		}
	} else {
		// Downstream call attempt: feed the edge breaker, then resolve the
		// parent's call slot — completion, retry, or fail-fast cascade.
		// Overload rejections (shedding, queue back-pressure) deliberately
		// bypass the breaker: they are the downstream tier protecting
		// itself, and counting them as failure accrual turns transient
		// overload into an OpenFor-long blackout of the edge — a
		// defense-induced outage. Breakers react to genuine failures only:
		// black-holed backends, timeouts, removals.
		if o != outcomeShed {
			g.res.RecordCallResult(at, n.edge.ord, o == outcomeCompleted)
		}
		if o == outcomeCompleted {
			g.childSucceeded(n.parent, at)
		} else {
			g.retryOrFail(n.parent, n.edge, n.slot, n.req.Attempt)
		}
	}
	g.release(n)
}

// childSucceeded books one resolved call slot on the parent; when the last
// slot resolves and the parent's own phases already finished (PhaseWait),
// the parent completes now — downstream latency composition.
func (g *graphRun) childSucceeded(p *reqNode, at time.Duration) {
	if p.resolved {
		return
	}
	p.pending--
	p.req.PendingChildren--
	if p.pending == 0 && p.req.Phase == workload.PhaseWait {
		if p.cont != nil {
			p.cont.Release(p.req, true)
			p.cont = nil
		}
		p.req.Phase = workload.PhaseDone
		g.finish(p, outcomeCompleted, at, workload.FailureNone)
	}
}

// retryOrFail handles a failed call attempt: re-issue after backoff when the
// retry policy, budget and attempt cap allow, otherwise fail the parent fast.
func (g *graphRun) retryOrFail(p *reqNode, e *callEdge, slot, attempt int) {
	if p.resolved {
		return // orphan result; the parent already resolved another way
	}
	now := g.w.engine.Now()
	maxAttempts, backoff := g.res.RetryPolicy()
	if attempt < maxAttempts && g.res.AllowRetry(int(p.req.ServiceOrd)) {
		var i int
		if k := len(g.freeRetries); k > 0 {
			i = g.freeRetries[k-1]
			g.freeRetries = g.freeRetries[:k-1]
		} else {
			i = len(g.retries)
			g.retries = append(g.retries, pendingRetry{})
		}
		g.retries[i] = pendingRetry{p: p, e: e, slot: slot, attempt: attempt + 1}
		p.refs++ // the retry reads p when it fires
		// A one-item batch takes one (at, seq) slot, like any event.
		_ = g.w.engine.ScheduleBatch(now+backoff, i, 1, g.fire)
		return
	}
	g.failFast(p, now)
}

// fireRetry issues scheduled retry i unless its parent resolved meanwhile,
// then drops the retry's reference on the parent.
func (g *graphRun) fireRetry(_ *sim.Engine, i int) {
	r := g.retries[i]
	g.retries[i] = pendingRetry{}
	g.freeRetries = append(g.freeRetries, i)
	if !r.p.resolved {
		g.issueCall(r.p, r.e, r.slot, r.attempt)
	}
	g.release(r.p)
}

// failFast resolves a parent as failed the moment one of its call slots
// fails permanently (synchronous-RPC semantics): it is released from its
// replica immediately and the failure propagates to its own caller, where
// the cycle repeats — possibly as a retried call attempt.
func (g *graphRun) failFast(p *reqNode, now time.Duration) {
	if p.resolved {
		return
	}
	if p.cont != nil {
		p.cont.Release(p.req, false)
		p.cont = nil
	}
	g.finish(p, outcomeFailed, now, workload.FailureConnection)
}

// afterAdvance consumes one physics tick's completions and timeouts.
func (g *graphRun) afterAdvance(now time.Duration, res cluster.TickResult) {
	for _, done := range res.Completed {
		n := g.nodeOf(done.Request)
		if n == nil {
			continue
		}
		n.cont = nil
		g.finish(n, outcomeCompleted, done.At, workload.FailureNone)
	}
	for _, r := range res.TimedOut {
		n := g.nodeOf(r)
		if n == nil {
			continue
		}
		n.cont = nil // Advance already dropped it from the in-flight set
		g.res.CountDeadlineExceeded()
		g.finish(n, outcomeDeadline, now, workload.FailureConnection)
	}
}

// onRemoval resolves a request killed by its container's removal.
func (g *graphRun) onRemoval(r *workload.Request) {
	n := g.nodeOf(r)
	if n == nil {
		// Untracked (already resolved); keep the legacy accounting.
		g.w.fail(r, workload.FailureRemoval)
		return
	}
	n.cont = nil
	g.finish(n, outcomeFailed, g.w.engine.Now(), workload.FailureRemoval)
}

// breakerEventKind maps a breaker transition to its journal event kind.
func breakerEventKind(to resilience.BreakerState) obs.EventKind {
	switch to {
	case resilience.StateOpen:
		return obs.EventBreakerOpen
	case resilience.StateHalfOpen:
		return obs.EventBreakerHalfOpen
	default:
		return obs.EventBreakerClose
	}
}
