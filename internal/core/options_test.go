package core

import (
	"strings"
	"testing"
	"time"

	"hyscale/internal/resources"
)

func TestHyScaleOptionsValidate(t *testing.T) {
	if err := (HyScaleOptions{}).Validate(); err != nil {
		t.Error("empty options rejected")
	}
	bad := HyScaleOptions{DisableVertical: true, DisableHorizontal: true}
	if err := bad.Validate(); err == nil {
		t.Error("contradictory options accepted")
	}
	if _, err := NewHyScaleVariant(DefaultConfig(), true, bad); err == nil {
		t.Error("NewHyScaleVariant accepted contradictory options")
	}
}

func TestVariantNames(t *testing.T) {
	tests := []struct {
		opts HyScaleOptions
		want string
	}{
		{HyScaleOptions{}, "hybridmem"},
		{HyScaleOptions{DisableReclamation: true}, "hybridmem-noreclaim"},
		{HyScaleOptions{DisableVertical: true}, "hybridmem-horizontal-only"},
		{HyScaleOptions{DisableHorizontal: true}, "hybridmem-vertical-only"},
	}
	for _, tt := range tests {
		h, err := NewHyScaleVariant(DefaultConfig(), true, tt.opts)
		if err != nil {
			t.Fatal(err)
		}
		if h.Name() != tt.want {
			t.Errorf("name = %q, want %q", h.Name(), tt.want)
		}
	}
	h, _ := NewHyScaleVariant(DefaultConfig(), false, HyScaleOptions{})
	if h.Name() != "hybrid" {
		t.Errorf("cpu variant name = %q", h.Name())
	}
}

func TestNoReclaimVariantNeverScalesDown(t *testing.T) {
	h, _ := NewHyScaleVariant(DefaultConfig(), false, HyScaleOptions{DisableReclamation: true})
	// Heavily over-provisioned: the stock algorithm would reclaim.
	snap := hySnapshot(time.Minute, info(),
		[]ReplicaStats{rep("r0", "A", 3, 0.2, 512, 300)},
		map[string]resources.Vector{"A": {CPU: 1, MemMB: 7000}})
	plan := h.Decide(snap)
	for _, a := range plan.Actions {
		if v := a; v.Kind == VerticalScale && v.Alloc.CPU < 3 {
			t.Errorf("noreclaim variant reclaimed CPU: %+v", v)
		}
		if a.Kind == ScaleIn {
			t.Error("noreclaim variant removed a replica")
		}
	}
}

func TestHorizontalOnlyVariantNeverResizes(t *testing.T) {
	h, _ := NewHyScaleVariant(DefaultConfig(), false, HyScaleOptions{DisableVertical: true})
	// Starved: the stock algorithm would scale r0 vertically.
	snap := hySnapshot(time.Minute, info(),
		[]ReplicaStats{rep("r0", "A", 1, 2.0, 512, 300)},
		map[string]resources.Vector{
			"A": {CPU: 3, MemMB: 7000},
			"B": {CPU: 4, MemMB: 8000},
		})
	plan := h.Decide(snap)
	outs := 0
	for _, a := range plan.Actions {
		switch a.Kind {
		case VerticalScale:
			t.Errorf("horizontal-only variant resized: %+v", a)
		case ScaleOut:
			outs++
		}
	}
	if outs == 0 {
		t.Error("horizontal-only variant did not scale out under deficit")
	}
}

func TestVerticalOnlyVariantNeverScalesOut(t *testing.T) {
	h, _ := NewHyScaleVariant(DefaultConfig(), false, HyScaleOptions{DisableHorizontal: true})
	// Node A full: stock algorithm would fall back to horizontal on B.
	snap := hySnapshot(time.Minute, info(),
		[]ReplicaStats{rep("r0", "A", 1, 2.0, 512, 300)},
		map[string]resources.Vector{
			"A": {CPU: 0, MemMB: 7000},
			"B": {CPU: 4, MemMB: 8000},
		})
	plan := h.Decide(snap)
	for _, a := range plan.Actions {
		if a.Kind == ScaleOut {
			t.Errorf("vertical-only variant scaled out: %+v", a)
		}
	}
}

func TestPlacementString(t *testing.T) {
	if PlacementSpread.String() != "spread" || PlacementBinPack.String() != "binpack" {
		t.Error("placement strings wrong")
	}
}

func TestBinPackPlacementPicksFullestNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Placement = PlacementBinPack
	k := NewKubernetes(cfg)
	snap := makeSnapshot(time.Minute, info(), []float64{1.5})
	// Node H nearly full but still fits; spread would pick an empty node.
	snap.Nodes[7].Available = resources.Vector{CPU: 1.2, MemMB: 600, NetMbps: 900}
	plan := k.Decide(snap)
	if len(plan.Actions) == 0 {
		t.Fatal("no actions")
	}
	if so := plan.Actions[0]; so.Kind != ScaleOut || so.NodeID != "H" {
		t.Errorf("binpack placed on %+v, want the fullest fitting node H", plan.Actions[0])
	}
}

func TestBinPackSkipsNodesThatDoNotFit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Placement = PlacementBinPack
	k := NewKubernetes(cfg)
	snap := makeSnapshot(time.Minute, info(), []float64{1.5})
	snap.Nodes[7].Available = resources.Vector{CPU: 0.5, MemMB: 100} // fullest but too small
	plan := k.Decide(snap)
	for _, a := range plan.Actions {
		if so := a; so.Kind == ScaleOut && so.NodeID == "H" {
			t.Error("binpack placed on a node that does not fit")
		}
	}
}

func TestHyScaleBinPackPlacement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Placement = PlacementBinPack
	h, _ := NewHyScaleVariant(cfg, false, HyScaleOptions{})
	snap := hySnapshot(time.Minute, info(),
		[]ReplicaStats{rep("r0", "A", 1, 2.0, 512, 300)},
		map[string]resources.Vector{
			"A": {CPU: 0, MemMB: 7000},
			"B": {CPU: 4, MemMB: 8000},
			"C": {CPU: 1, MemMB: 8000}, // fullest fitting candidate
		})
	plan := h.Decide(snap)
	var outs []string
	for _, a := range plan.Actions {
		if so := a; so.Kind == ScaleOut {
			outs = append(outs, so.NodeID)
		}
	}
	if len(outs) == 0 {
		t.Fatalf("no scale-out: %+v", plan.Actions)
	}
	// Binpack fills the fullest fitting node first; the residual deficit
	// may then spill onto emptier nodes.
	if outs[0] != "C" {
		t.Errorf("first binpack scale-out on %s, want C (fullest fitting)", outs[0])
	}
	if !strings.Contains(h.String(), "HyScale") {
		t.Error("String wrong")
	}
}
