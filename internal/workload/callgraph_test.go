package workload

import (
	"strings"
	"testing"
)

func TestCallGraphValidateRejections(t *testing.T) {
	known := map[string]bool{"a": true, "b": true, "c": true}
	cases := []struct {
		name  string
		graph CallGraph
		want  string
	}{
		{"empty endpoint", CallGraph{Edges: []CallEdge{{From: "a"}}}, "empty from/to"},
		{"self-loop", CallGraph{Edges: []CallEdge{{From: "a", To: "a"}}}, "self-loop"},
		{"bad prob", CallGraph{Edges: []CallEdge{{From: "a", To: "b", Prob: 1.5}}}, "prob"},
		{"negative calls", CallGraph{Edges: []CallEdge{{From: "a", To: "b", Calls: -1}}}, "negative calls"},
		{"duplicate edge", CallGraph{Edges: []CallEdge{{From: "a", To: "b"}, {From: "a", To: "b"}}}, "duplicate"},
		{"unknown service", CallGraph{Edges: []CallEdge{{From: "a", To: "zz"}}}, `unknown service "zz"`},
		{"two-cycle", CallGraph{Edges: []CallEdge{{From: "a", To: "b"}, {From: "b", To: "a"}}}, "cycle"},
		{"three-cycle", CallGraph{Edges: []CallEdge{
			{From: "a", To: "b"}, {From: "b", To: "c"}, {From: "c", To: "a"}}}, "cycle"},
	}
	for _, tc := range cases {
		err := tc.graph.Validate(known)
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCallGraphCycleIsPrinted checks the error names the actual cycle path so
// a mis-declared chain is debuggable from the message alone.
func TestCallGraphCycleIsPrinted(t *testing.T) {
	g := CallGraph{Edges: []CallEdge{
		{From: "a", To: "b"},
		{From: "b", To: "c"},
		{From: "c", To: "b"},
	}}
	err := g.Validate(nil)
	if err == nil {
		t.Fatal("cyclic graph validated")
	}
	if !strings.Contains(err.Error(), "b -> c -> b") {
		t.Errorf("error %q does not print the cycle b -> c -> b", err)
	}
}

func TestCallGraphShape(t *testing.T) {
	g := CallGraph{Edges: []CallEdge{
		{From: "gw", To: "cat", Prob: 0.7},
		{From: "gw", To: "ord", Calls: 2},
		{From: "cat", To: "db"},
		{From: "ord", To: "db"},
	}}
	if err := g.Validate(nil); err != nil {
		t.Fatal(err)
	}
	if !g.Enabled() || (CallGraph{}).Enabled() {
		t.Error("Enabled wrong for populated/zero graph")
	}
	if got := g.Roots(); len(got) != 1 || got[0] != "gw" {
		t.Errorf("Roots = %v, want [gw]", got)
	}
	if got := g.Services(); len(got) != 4 {
		t.Errorf("Services = %v, want 4 names", got)
	}
	if got := g.Out("gw"); len(got) != 2 || got[0].To != "cat" || got[1].To != "ord" {
		t.Errorf("Out(gw) = %v, want declaration order [cat ord]", got)
	}
	if got := g.Out("db"); got != nil {
		t.Errorf("Out(db) = %v, want none", got)
	}
}

func TestCallEdgeDefaults(t *testing.T) {
	e := CallEdge{From: "a", To: "b"}
	if e.Key() != "a->b" {
		t.Errorf("Key = %q", e.Key())
	}
	if e.EffectiveProb() != 1 || e.EffectiveCalls() != 1 {
		t.Error("zero prob/calls must normalise to 1")
	}
	if (CallEdge{Prob: 0.3, Calls: 4}).EffectiveProb() != 0.3 {
		t.Error("explicit prob not honoured")
	}
	if (CallEdge{Calls: 4}).EffectiveCalls() != 4 {
		t.Error("explicit calls not honoured")
	}
}
