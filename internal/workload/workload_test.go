package workload

import (
	"math"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func validSpec() ServiceSpec {
	return ServiceSpec{
		Name: "svc", Kind: KindCPUBound,
		CPUPerRequest: 0.1, CPUOverheadPerRequest: 0.01,
		MemPerRequest: 4, BaselineMemMB: 100,
		InitialReplicaCPU: 1, InitialReplicaMemMB: 512,
		MinReplicas: 1, MaxReplicas: 4,
		Timeout: 30 * time.Second,
	}
}

func TestValidateAcceptsValidSpec(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*ServiceSpec)
		wantSub string
	}{
		{"empty name", func(s *ServiceSpec) { s.Name = "" }, "empty name"},
		{"unknown kind", func(s *ServiceSpec) { s.Kind = KindUnknown }, "unknown kind"},
		{"negative cpu", func(s *ServiceSpec) { s.CPUPerRequest = -1 }, "negative per-request"},
		{"negative overhead", func(s *ServiceSpec) { s.CPUOverheadPerRequest = -1 }, "negative per-request"},
		{"negative mem", func(s *ServiceSpec) { s.MemPerRequest = -1 }, "negative per-request"},
		{"negative net", func(s *ServiceSpec) { s.NetPerRequest = -1 }, "negative per-request"},
		{"negative baseline", func(s *ServiceSpec) { s.BaselineMemMB = -1 }, "negative baseline"},
		{"zero initial cpu", func(s *ServiceSpec) { s.InitialReplicaCPU = 0 }, "positive initial CPU"},
		{"zero initial mem", func(s *ServiceSpec) { s.InitialReplicaMemMB = 0 }, "positive initial memory"},
		{"zero min replicas", func(s *ServiceSpec) { s.MinReplicas = 0 }, "MinReplicas"},
		{"max < min", func(s *ServiceSpec) { s.MaxReplicas = 0 }, "MaxReplicas"},
		{"zero timeout", func(s *ServiceSpec) { s.Timeout = 0 }, "timeout"},
		{"negative background cpu", func(s *ServiceSpec) { s.BackgroundCPU = -1 }, "negative background CPU -1"},
		{"NaN background cpu", func(s *ServiceSpec) { s.BackgroundCPU = math.NaN() }, "non-finite BackgroundCPU NaN"},
		{"NaN cpu", func(s *ServiceSpec) { s.CPUPerRequest = math.NaN() }, "non-finite CPUPerRequest NaN"},
		{"NaN initial cpu", func(s *ServiceSpec) { s.InitialReplicaCPU = math.NaN() }, "non-finite InitialReplicaCPU NaN"},
		{"infinite initial mem", func(s *ServiceSpec) { s.InitialReplicaMemMB = math.Inf(1) }, "non-finite InitialReplicaMemMB +Inf"},
		{"NaN baseline", func(s *ServiceSpec) { s.BaselineMemMB = math.NaN() }, "non-finite BaselineMemMB NaN"},
		{"infinite sync", func(s *ServiceSpec) { s.StateSyncMB = math.Inf(-1) }, "non-finite StateSyncMB -Inf"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := validSpec()
			tt.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("expected error, got nil")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q does not contain %q", err, tt.wantSub)
			}
		})
	}
}

func TestTotalCPUWork(t *testing.T) {
	s := validSpec()
	if got := s.TotalCPUWork(); got != 0.11 {
		t.Errorf("TotalCPUWork = %v, want 0.11", got)
	}
}

func TestNewRequest(t *testing.T) {
	s := validSpec()
	s.NetPerRequest = 8
	r := NewRequest(7, s, 10*time.Second)

	if r.ID != 7 || r.Service != "svc" {
		t.Errorf("identity wrong: %+v", r)
	}
	if r.Arrival != 10*time.Second || r.Deadline != 40*time.Second {
		t.Errorf("timing wrong: arrival=%v deadline=%v", r.Arrival, r.Deadline)
	}
	if r.Phase != PhaseCPU {
		t.Errorf("Phase = %v, want PhaseCPU", r.Phase)
	}
	if r.RemainingCPU != s.TotalCPUWork() {
		t.Errorf("RemainingCPU = %v, want %v", r.RemainingCPU, s.TotalCPUWork())
	}
	if r.RemainingNetMb != 8 {
		t.Errorf("RemainingNetMb = %v, want 8", r.RemainingNetMb)
	}
	if r.MemFootprintMB != 4 {
		t.Errorf("MemFootprintMB = %v, want 4", r.MemFootprintMB)
	}
}

// TestRequestFitsItsAllocation pins the size the Request field comments
// promise: every request the pool hands out fits a 112-byte allocation.
func TestRequestFitsItsAllocation(t *testing.T) {
	if size := unsafe.Sizeof(Request{}); size > 112 {
		t.Errorf("Request is %d bytes, want at most 112", size)
	}
}

func TestKindStrings(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{KindCPUBound, "cpu-bound"},
		{KindMemoryBound, "memory-bound"},
		{KindNetworkBound, "network-bound"},
		{KindMixed, "mixed"},
		{KindUnknown, "unknown(0)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.k, got, tt.want)
		}
	}
}

func TestFailureClassStrings(t *testing.T) {
	if FailureRemoval.String() != "removal" || FailureConnection.String() != "connection" || FailureNone.String() != "none" {
		t.Error("FailureClass strings wrong")
	}
}

func TestSyncDelay(t *testing.T) {
	s := validSpec()
	if s.SyncDelay() != 0 {
		t.Error("stateless service has sync delay")
	}
	s.StateSyncMB = 2048 // 2 GiB at the default 200 Mbps: 16384 Mb / 200 = 81.92 s
	want := time.Duration(2048 * 8 / 200.0 * float64(time.Second))
	if got := s.SyncDelay(); got != want {
		t.Errorf("SyncDelay = %v, want %v", got, want)
	}
	s.StateSyncMbps = 800
	if got := s.SyncDelay(); got != want/4 {
		t.Errorf("SyncDelay at 800 Mbps = %v, want %v", got, want/4)
	}
}
