package workload

import (
	"fmt"
	"sort"
	"strings"
)

// CallEdge is one directed dependency in a service call DAG: every request
// admitted at From issues Calls downstream requests to To, each with
// probability Prob. The zero values of Calls and Prob mean "one call,
// always" so a bare {"from","to"} edge behaves like a plain synchronous
// dependency.
type CallEdge struct {
	// From is the calling service.
	From string `json:"from"`
	// To is the downstream service.
	To string `json:"to"`
	// Prob is the probability each call fires (0 or 1 means always).
	Prob float64 `json:"prob,omitempty"`
	// Calls is the number of downstream requests issued per admitted
	// request (0 means 1).
	Calls int `json:"calls,omitempty"`
}

// Key renders the edge identity used by breakers, counters and metrics.
func (e CallEdge) Key() string { return e.From + "->" + e.To }

// EffectiveProb returns the per-call firing probability with the zero value
// normalised to 1.
func (e CallEdge) EffectiveProb() float64 {
	if e.Prob <= 0 {
		return 1
	}
	if e.Prob > 1 {
		return 1
	}
	return e.Prob
}

// EffectiveCalls returns the fan-out count with the zero value normalised
// to 1.
func (e CallEdge) EffectiveCalls() int {
	if e.Calls <= 0 {
		return 1
	}
	return e.Calls
}

// CallGraph is a per-run service dependency DAG. The zero value (no edges)
// means every service is independent — exactly the paper's workload model —
// and costs nothing anywhere on the hot path.
type CallGraph struct {
	Edges []CallEdge `json:"edges,omitempty"`
}

// Enabled reports whether the graph declares any dependency at all.
func (g CallGraph) Enabled() bool { return len(g.Edges) > 0 }

// Out returns the outgoing edges of a service, in declaration order.
func (g CallGraph) Out(service string) []CallEdge {
	var out []CallEdge
	for _, e := range g.Edges {
		if e.From == service {
			out = append(out, e)
		}
	}
	return out
}

// Services returns every service named by the graph, sorted.
func (g CallGraph) Services() []string {
	seen := make(map[string]bool)
	var names []string
	for _, e := range g.Edges {
		for _, n := range []string{e.From, e.To} {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}

// Roots returns the graph services with no incoming edge — the tiers that
// receive external client traffic directly — sorted.
func (g CallGraph) Roots() []string {
	callee := make(map[string]bool)
	for _, e := range g.Edges {
		callee[e.To] = true
	}
	var roots []string
	for _, n := range g.Services() {
		if !callee[n] {
			roots = append(roots, n)
		}
	}
	return roots
}

// Validate rejects malformed graphs: empty endpoints, self-loops, edges to
// services not in the known set (when one is supplied), out-of-range
// probabilities, negative fan-outs, duplicate edges, and cycles — the cycle
// itself is printed so a mis-declared chain is obvious. known may be nil to
// skip the membership check.
func (g CallGraph) Validate(known map[string]bool) error {
	seen := make(map[string]bool, len(g.Edges))
	for i, e := range g.Edges {
		if e.From == "" || e.To == "" {
			return fmt.Errorf("workload: callGraph.edges[%d]: empty from/to", i)
		}
		if e.From == e.To {
			return fmt.Errorf("workload: callGraph.edges[%d]: self-loop %s", i, e.Key())
		}
		if e.Prob < 0 || e.Prob > 1 {
			return fmt.Errorf("workload: callGraph.edges[%d] (%s): prob %v out of [0,1]", i, e.Key(), e.Prob)
		}
		if e.Calls < 0 {
			return fmt.Errorf("workload: callGraph.edges[%d] (%s): negative calls %d", i, e.Key(), e.Calls)
		}
		if seen[e.Key()] {
			return fmt.Errorf("workload: callGraph.edges[%d]: duplicate edge %s", i, e.Key())
		}
		seen[e.Key()] = true
		if known != nil {
			if !known[e.From] {
				return fmt.Errorf("workload: callGraph.edges[%d]: unknown service %q", i, e.From)
			}
			if !known[e.To] {
				return fmt.Errorf("workload: callGraph.edges[%d]: unknown service %q", i, e.To)
			}
		}
	}
	if cycle := g.findCycle(); cycle != nil {
		return fmt.Errorf("workload: callGraph has a cycle: %s", strings.Join(cycle, " -> "))
	}
	return nil
}

// findCycle runs a colouring DFS over the edge set and returns the first
// cycle found as a service path ending where it started, or nil.
func (g CallGraph) findCycle() []string {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	colour := make(map[string]int)
	var stack []string
	var cycle []string
	var visit func(string) bool
	visit = func(svc string) bool {
		colour[svc] = grey
		stack = append(stack, svc)
		for _, e := range g.Out(svc) {
			switch colour[e.To] {
			case grey:
				// Found: slice the stack from the first occurrence of e.To
				// and close the loop.
				for i, s := range stack {
					if s == e.To {
						cycle = append(append(cycle, stack[i:]...), e.To)
						return true
					}
				}
			case white:
				if visit(e.To) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		colour[svc] = black
		return false
	}
	for _, n := range g.Services() {
		if colour[n] == white && visit(n) {
			return cycle
		}
	}
	return nil
}
