package loadgen

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"hyscale/internal/workload"
)

func spec() workload.ServiceSpec {
	return workload.ServiceSpec{
		Name: "svc", Kind: workload.KindCPUBound,
		CPUPerRequest: 0.1, InitialReplicaCPU: 1, InitialReplicaMemMB: 256,
		MinReplicas: 1, MaxReplicas: 4, Timeout: 30 * time.Second,
	}
}

func TestConstantRate(t *testing.T) {
	p := Constant{RPS: 7}
	if p.Rate(0) != 7 || p.Rate(time.Hour) != 7 {
		t.Error("constant rate not constant")
	}
}

func TestWaveRate(t *testing.T) {
	w := Wave{Base: 10, Amplitude: 0.5, Period: time.Minute}
	if got := w.Rate(0); math.Abs(got-10) > 1e-9 {
		t.Errorf("Rate(0) = %v, want 10 (sin 0)", got)
	}
	if got := w.Rate(15 * time.Second); math.Abs(got-15) > 1e-9 {
		t.Errorf("Rate(quarter) = %v, want 15 (peak)", got)
	}
	if got := w.Rate(45 * time.Second); math.Abs(got-5) > 1e-9 {
		t.Errorf("Rate(3/4) = %v, want 5 (trough)", got)
	}
}

func TestWaveNeverNegative(t *testing.T) {
	w := Wave{Base: 10, Amplitude: 2, Period: time.Minute} // swing exceeds base
	for i := 0; i < 60; i++ {
		if w.Rate(time.Duration(i)*time.Second) < 0 {
			t.Fatal("negative rate")
		}
	}
}

func TestWaveZeroPeriod(t *testing.T) {
	w := Wave{Base: 4}
	if w.Rate(time.Hour) != 4 {
		t.Error("zero-period wave should be flat")
	}
}

func TestWavePhaseShift(t *testing.T) {
	a := Wave{Base: 10, Amplitude: 0.5, Period: time.Minute}
	b := Wave{Base: 10, Amplitude: 0.5, Period: time.Minute, PhaseShift: 15 * time.Second}
	if math.Abs(b.Rate(0)-a.Rate(15*time.Second)) > 1e-9 {
		t.Error("phase shift not applied")
	}
}

func TestBurstRate(t *testing.T) {
	b := Burst{Base: 2, Peak: 20, Period: 10 * time.Minute, BurstLen: 2 * time.Minute}
	if got := b.Rate(time.Minute); got != 20 {
		t.Errorf("in-burst rate = %v, want 20", got)
	}
	if got := b.Rate(5 * time.Minute); got != 2 {
		t.Errorf("off-burst rate = %v, want 2", got)
	}
	// Next period bursts again.
	if got := b.Rate(10*time.Minute + time.Second); got != 20 {
		t.Errorf("second-period burst = %v, want 20", got)
	}
}

func TestFuncPattern(t *testing.T) {
	p := Func(func(at time.Duration) float64 { return at.Seconds() })
	if p.Rate(5*time.Second) != 5 {
		t.Error("Func pattern not forwarded")
	}
}

func TestIDAllocator(t *testing.T) {
	var a IDAllocator
	if a.Next() != 1 || a.Next() != 2 {
		t.Error("IDs not sequential")
	}
}

func TestDeterministicArrivalsMatchRate(t *testing.T) {
	var ids IDAllocator
	g := NewGenerator(spec(), Constant{RPS: 10}, &ids)
	total := 0
	tick := 100 * time.Millisecond
	for i := 0; i < 100; i++ { // ten seconds
		total += len(g.Arrivals(time.Duration(i)*tick, tick, nil))
	}
	if total != 100 {
		t.Errorf("arrivals = %d, want 100 (10 rps x 10 s)", total)
	}
}

func TestFractionalRatesAccumulate(t *testing.T) {
	var ids IDAllocator
	g := NewGenerator(spec(), Constant{RPS: 0.5}, &ids)
	total := 0
	for i := 0; i < 100; i++ { // ten seconds at 0.5 rps
		total += len(g.Arrivals(time.Duration(i)*100*time.Millisecond, 100*time.Millisecond, nil))
	}
	if total != 5 {
		t.Errorf("arrivals = %d, want 5", total)
	}
}

func TestArrivalsSpreadWithinWindow(t *testing.T) {
	var ids IDAllocator
	g := NewGenerator(spec(), Constant{RPS: 40}, &ids)
	reqs := g.Arrivals(time.Second, time.Second, nil)
	if len(reqs) != 40 {
		t.Fatalf("arrivals = %d, want 40", len(reqs))
	}
	prev := time.Duration(0)
	for _, r := range reqs {
		if r.Arrival < time.Second || r.Arrival >= 2*time.Second {
			t.Fatalf("arrival %v outside window", r.Arrival)
		}
		if r.Arrival < prev {
			t.Fatal("arrivals not monotone")
		}
		prev = r.Arrival
	}
}

func TestArrivalIDsUnique(t *testing.T) {
	var ids IDAllocator
	g1 := NewGenerator(spec(), Constant{RPS: 10}, &ids)
	g2 := NewGenerator(spec(), Constant{RPS: 10}, &ids)
	seen := make(map[uint64]bool)
	for i := 0; i < 10; i++ {
		for _, g := range []*Generator{g1, g2} {
			for _, r := range g.Arrivals(time.Duration(i)*time.Second, time.Second, nil) {
				if seen[r.ID] {
					t.Fatalf("duplicate ID %d", r.ID)
				}
				seen[r.ID] = true
			}
		}
	}
}

func TestPoissonReproducible(t *testing.T) {
	run := func() []int {
		var ids IDAllocator
		g := NewGenerator(spec(), Constant{RPS: 20}, &ids)
		g.Poisson = true
		rng := rand.New(rand.NewSource(5))
		var counts []int
		for i := 0; i < 50; i++ {
			counts = append(counts, len(g.Arrivals(time.Duration(i)*100*time.Millisecond, 100*time.Millisecond, rng)))
		}
		return counts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different Poisson arrivals")
		}
	}
}

func TestPoissonMeanRoughlyMatches(t *testing.T) {
	var ids IDAllocator
	g := NewGenerator(spec(), Constant{RPS: 50}, &ids)
	g.Poisson = true
	rng := rand.New(rand.NewSource(1))
	total := 0
	const secs = 200
	for i := 0; i < secs*10; i++ {
		total += len(g.Arrivals(time.Duration(i)*100*time.Millisecond, 100*time.Millisecond, rng))
	}
	mean := float64(total) / secs
	if mean < 45 || mean > 55 {
		t.Errorf("Poisson mean rate = %v, want ~50", mean)
	}
}

func TestPoissonLargeLambdaNormalApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	total := 0
	const n = 2000
	for i := 0; i < n; i++ {
		total += poisson(rng, 100, &expMemo{}) // exercises the normal-approximation path
	}
	mean := float64(total) / n
	if mean < 95 || mean > 105 {
		t.Errorf("poisson(100) mean = %v, want ~100", mean)
	}
}

func TestZeroAndNegativeWindows(t *testing.T) {
	var ids IDAllocator
	g := NewGenerator(spec(), Constant{RPS: 100}, &ids)
	if got := g.Arrivals(0, 0, nil); got != nil {
		t.Error("zero window produced arrivals")
	}
	if got := g.Arrivals(0, -time.Second, nil); got != nil {
		t.Error("negative window produced arrivals")
	}
}

// TestPoissonMemoMatchesFreshDraws checks that memoising exp(-λ) changes
// neither the counts nor the random numbers consumed: a memoised and a fresh
// draw from equally seeded sources agree over a rate sequence with repeats,
// and both sources end in the same state.
func TestPoissonMemoMatchesFreshDraws(t *testing.T) {
	lambdas := []float64{2, 2, 2, 0.5, 0.5, 2, 7.25, 7.25, 0, 7.25, 31, 31, 2, 2}
	memoRNG := rand.New(rand.NewSource(11))
	freshRNG := rand.New(rand.NewSource(11))
	var memo expMemo
	for round := 0; round < 50; round++ {
		for i, l := range lambdas {
			got, want := poisson(memoRNG, l, &memo), poisson(freshRNG, l, &expMemo{})
			if got != want {
				t.Fatalf("round %d draw %d (λ=%v): memoised %d, fresh %d", round, i, l, got, want)
			}
		}
	}
	if memoRNG.Int63() != freshRNG.Int63() {
		t.Fatal("memoised draws consumed a different number of random values")
	}
}

// TestPooledArrivalsReuseRequests checks that a pooled generator stamps the
// service ordinal and hands back requests its owner returned.
func TestPooledArrivalsReuseRequests(t *testing.T) {
	var ids IDAllocator
	var pool workload.RequestPool
	g := NewGenerator(spec(), Constant{RPS: 30}, &ids)
	g.Pool, g.ServiceOrd = &pool, 3
	first := append([]*workload.Request(nil), g.Arrivals(0, 100*time.Millisecond, nil)...)
	if len(first) != 3 {
		t.Fatalf("arrivals = %d, want 3", len(first))
	}
	for _, r := range first {
		if r.ServiceOrd != 3 || r.Service != "svc" || r.Phase != workload.PhaseCPU {
			t.Fatalf("request not initialised: %+v", r)
		}
		r.Node = 9 // a stale call-graph handle must not survive reuse
		pool.Put(r)
		if r.Phase != workload.PhaseRecycled || !math.IsNaN(r.RemainingCPU) {
			t.Fatalf("returned request not poisoned: %+v", r)
		}
	}
	if free, made := pool.Counts(); free != 3 || made != 3 {
		t.Fatalf("pool counts = %d free, %d made; want 3, 3", free, made)
	}
	reused := map[*workload.Request]bool{first[0]: true, first[1]: true, first[2]: true}
	for _, r := range g.Arrivals(100*time.Millisecond, 100*time.Millisecond, nil) {
		if !reused[r] {
			t.Fatal("pooled generator allocated while requests were free")
		}
		if r.Phase != workload.PhaseCPU || r.RemainingCPU != spec().TotalCPUWork() || r.ID <= 3 || r.Node != 0 {
			t.Fatalf("reused request not reinitialised: %+v", r)
		}
	}
	if free, made := pool.Counts(); free != 0 || made != 3 {
		t.Fatalf("pool counts = %d free, %d made; want 0, 3", free, made)
	}
}
