package experiments

import (
	"slices"
	"strings"
	"testing"
)

// TestAllIDsPinned: -all runs the same experiments in the same order as
// the hand-written list it replaced; macro and scale run only when named.
func TestAllIDsPinned(t *testing.T) {
	want := []string{
		"fig2", "mem", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10",
		"ablation", "monitorperiod", "placement", "churn", "stateful",
		"fig3sweep", "targetutil", "hetero", "predictive", "lbpolicy",
		"chaos", "recovery", "cascade", "manager", "dr",
	}
	all := AllIDs()
	if !slices.Equal(all, want) {
		t.Errorf("AllIDs() = %q\nwant %q", all, want)
	}
	for _, id := range []string{"macro", "scale"} {
		if slices.Contains(all, id) {
			t.Errorf("-all runs %q", id)
		}
		if runs, err := Lookup([]string{id}); err != nil || len(runs) != 1 || runs[0] == nil {
			t.Errorf("Lookup(%q) = %d runners, %v", id, len(runs), err)
		}
	}
}

// TestLookupRejectsUnknownIDs: an unknown or empty id fails the whole
// lookup, before any experiment runs, and the error lists every valid id.
func TestLookupRejectsUnknownIDs(t *testing.T) {
	for _, tc := range []struct {
		ids []string
		bad string
	}{
		{[]string{"fig6", "bogus"}, `"bogus"`},
		{[]string{"fig6", ""}, `""`},
		{[]string{"Fig6"}, `"Fig6"`},
	} {
		runs, err := Lookup(tc.ids)
		if err == nil {
			t.Errorf("Lookup(%q) accepted", tc.ids)
			continue
		}
		if runs != nil {
			t.Errorf("Lookup(%q) returned runners with its error", tc.ids)
		}
		msg := err.Error()
		if !strings.Contains(msg, "unknown experiment "+tc.bad) {
			t.Errorf("Lookup(%q) error %q does not name %s", tc.ids, msg, tc.bad)
		}
		for _, id := range append(AllIDs(), "macro", "scale") {
			if !strings.Contains(msg, id) {
				t.Errorf("Lookup(%q) error %q does not list %q", tc.ids, msg, id)
			}
		}
	}
	runs, err := Lookup(AllIDs())
	if err != nil || len(runs) != len(AllIDs()) {
		t.Errorf("Lookup(AllIDs()) = %d runners, %v", len(runs), err)
	}
}
