package platform

import (
	"sort"
	"time"

	"hyscale/internal/container"
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
// retry budgets, deadlines and shedding gate every hop. Admission and
// outcome booking are the World's one request path (World.admit,
// World.resolve); this layer adds the request tree around it. Worlds
// without a graph never construct a graphRun.

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
	// roll is sim.RollPrefix(seed, "call|"+key): a call-probability
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
	// refs counts the node's references: one for itself until settle, one
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

// graphRun is a World's call-graph state: the live request tree and the
// compiled edges with their counters.
type graphRun struct {
	w     *World
	graph workload.CallGraph

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

func newGraphRun(w *World, graph workload.CallGraph) *graphRun {
	g := &graphRun{w: w, graph: graph}
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

// nodeOf returns the node tracking r, or nil when r is untracked or the
// world has no call graph.
func (g *graphRun) nodeOf(r *workload.Request) *reqNode {
	if g == nil || r.Node == 0 {
		return nil
	}
	h := r.Node - 1
	n := &g.chunks[h>>nodeChunkBits][h&(nodeChunk-1)]
	if n.req != r {
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
			roll:  sim.RollPrefix(g.w.cfg.Seed, "call|"+key),
		}
		from := g.w.byName[e.From].ord
		g.out[from] = append(g.out[from], &g.edges[i])
		keys[i] = key
	}
	g.w.res.SetEdges(keys)
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
			if e.prob < 1 && sim.RollFrom(e.roll, n.req.ID<<8|uint64(k&0xff)) >= e.prob {
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
	w := g.w
	now := w.engine.Now()
	es := &e.stats

	if !w.res.AllowCall(now, e.ord) {
		// Short-circuited by an open breaker: fail fast, never retried, and
		// the downstream tier sees nothing.
		es.Issued++
		es.Dropped++
		g.failFast(p, now)
		return
	}
	rt := e.to
	deadline := w.res.ChildDeadline(now, p.req.Deadline, rt.spec.Timeout)
	if deadline <= now {
		// The propagated deadline leaves no room: starting the call could
		// never help the root request.
		es.Issued++
		es.Dropped++
		w.res.CountDeadlineExceeded()
		g.failFast(p, now)
		return
	}
	es.Issued++
	w.res.RecordAttempt(int(p.req.ServiceOrd), attempt)

	req := w.reqs.New(w.ids.Next(), &rt.spec, rt.ord, now)
	req.Deadline = deadline
	req.Attempt = attempt
	w.admit(req, g.newNode(req, p, e, slot))
}

// settle applies a resolved node's outcome to its tree once World.resolve
// has booked it: a root's outcome counter, or a downstream attempt's edge
// breaker and its parent's call slot. It then drops the node's own
// reference.
func (g *graphRun) settle(n *reqNode, o outcome, at time.Duration) {
	n.cont = nil
	if o == outcomeDeadline {
		g.w.res.CountDeadlineExceeded()
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
			g.w.res.RecordCallResult(at, n.edge.ord, o == outcomeCompleted)
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
			p.cont.Release(p.req)
		}
		p.req.Phase = workload.PhaseDone
		g.w.resolve(p.req, p, outcomeCompleted, at, workload.FailureNone)
	}
}

// retryOrFail handles a failed call attempt: re-issue after backoff when the
// retry policy, budget and attempt cap allow, otherwise fail the parent fast.
func (g *graphRun) retryOrFail(p *reqNode, e *callEdge, slot, attempt int) {
	if p.resolved {
		return // orphan result; the parent already resolved another way
	}
	now := g.w.engine.Now()
	maxAttempts, backoff := g.w.res.RetryPolicy()
	if attempt < maxAttempts && g.w.res.AllowRetry(int(p.req.ServiceOrd)) {
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
		p.cont.Release(p.req)
	}
	g.w.resolve(p.req, p, outcomeFailed, now, workload.FailureConnection)
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
