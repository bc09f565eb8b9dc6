package faults

import (
	"math/rand"
	"testing"
	"time"
)

func TestNilInjectorIsInert(t *testing.T) {
	var i *Injector
	if i.Enabled() {
		t.Error("nil injector enabled")
	}
	if i.VerticalFails(time.Second, "c") {
		t.Error("nil injector failed a vertical")
	}
	if fail, slow := i.StartFault(time.Second, "svc/0"); fail || slow != 0 {
		t.Error("nil injector faulted a start")
	}
	if i.StatsDropped(time.Second, "node-0") {
		t.Error("nil injector dropped stats")
	}
	if i.BackendDown(time.Second, "svc", "c") {
		t.Error("nil injector downed a backend")
	}
}

func TestNewReturnsNilForInertConfig(t *testing.T) {
	if New(Config{Seed: 42}) != nil {
		t.Error("New with zero probabilities should return nil")
	}
	if New(Config{VerticalFailProb: 0.1}) == nil {
		t.Error("New with a probability should return an injector")
	}
	if New(Config{Windows: []Window{{Kind: KindStats, From: 0, To: time.Second}}}) == nil {
		t.Error("New with a window should return an injector")
	}
}

func TestDecisionsAreDeterministic(t *testing.T) {
	cfg := Config{
		Seed: 7, VerticalFailProb: 0.5, StartFailProb: 0.2, StartSlowProb: 0.3,
		StatsDropProb: 0.5, BackendDownProb: 0.5,
	}
	a, b := New(cfg), New(cfg)
	for s := 0; s < 200; s++ {
		now := time.Duration(s) * time.Second
		if a.VerticalFails(now, "c1") != b.VerticalFails(now, "c1") {
			t.Fatal("vertical decisions diverged")
		}
		af, as := a.StartFault(now, "svc/3")
		bf, bs := b.StartFault(now, "svc/3")
		if af != bf || as != bs {
			t.Fatal("start decisions diverged")
		}
		if a.StatsDropped(now, "node-2") != b.StatsDropped(now, "node-2") {
			t.Fatal("stats decisions diverged")
		}
		if a.BackendDown(now, "svc", "c1") != b.BackendDown(now, "svc", "c1") {
			t.Fatal("backend decisions diverged")
		}
	}
}

// TestDecisionsAreOrderIndependent is the property that makes hardened and
// unhardened runs comparable: asking twice (or in any order) does not change
// the answer.
func TestDecisionsAreOrderIndependent(t *testing.T) {
	i := New(Config{Seed: 3, VerticalFailProb: 0.4, StatsDropProb: 0.4})
	now := 17 * time.Second
	first := i.VerticalFails(now, "x")
	i.StatsDropped(5*time.Second, "node-9") // interleaved query
	i.VerticalFails(99*time.Second, "y")
	if i.VerticalFails(now, "x") != first {
		t.Error("repeated query changed its answer")
	}
}

func TestProbabilitiesApproximateRates(t *testing.T) {
	i := New(Config{Seed: 11, VerticalFailProb: 0.3})
	hits := 0
	const n = 5000
	for s := 0; s < n; s++ {
		if i.VerticalFails(time.Duration(s)*time.Second, "c") {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.25 || got > 0.35 {
		t.Errorf("empirical fail rate = %.3f, want ~0.30", got)
	}
}

func TestStartFaultSplitsFailAndSlow(t *testing.T) {
	i := New(Config{Seed: 5, StartFailProb: 0.2, StartSlowProb: 0.3, StartSlowBy: 8 * time.Second})
	fails, slows := 0, 0
	const n = 5000
	for s := 0; s < n; s++ {
		fail, slow := i.StartFault(time.Duration(s)*time.Millisecond*137, "svc/1")
		if fail {
			fails++
		}
		if slow != 0 {
			if slow != 8*time.Second {
				t.Fatalf("slowBy = %v, want 8s", slow)
			}
			slows++
		}
	}
	if f := float64(fails) / n; f < 0.15 || f > 0.25 {
		t.Errorf("fail rate = %.3f, want ~0.20", f)
	}
	if sl := float64(slows) / n; sl < 0.25 || sl > 0.35 {
		t.Errorf("slow rate = %.3f, want ~0.30", sl)
	}
}

func TestBackendDownIsEpochAligned(t *testing.T) {
	i := New(Config{
		Seed: 1, BackendDownProb: 1, // every epoch is an outage
		BackendDownEvery: time.Minute, BackendDownFor: 10 * time.Second,
	})
	cases := []struct {
		at   time.Duration
		down bool
	}{
		{0, true}, {9 * time.Second, true}, {10 * time.Second, false},
		{59 * time.Second, false}, {time.Minute, true}, {70 * time.Second, false},
	}
	for _, c := range cases {
		if got := i.BackendDown(c.at, "svc", "c"); got != c.down {
			t.Errorf("BackendDown(%v) = %v, want %v", c.at, got, c.down)
		}
	}
}

func TestBackendDownDefaultsDurations(t *testing.T) {
	i := New(Config{Seed: 2, BackendDownProb: 1})
	// Defaults: 10s down at the head of each 1m epoch.
	if !i.BackendDown(5*time.Second, "svc", "c") {
		t.Error("not down inside default outage window")
	}
	if i.BackendDown(30*time.Second, "svc", "c") {
		t.Error("down outside default outage window")
	}
}

func TestWindowsForceFaults(t *testing.T) {
	i := New(Config{
		Seed: 9,
		Windows: []Window{
			{Kind: KindStats, Target: "node-3", From: 4 * time.Minute, To: 6 * time.Minute},
			{Kind: KindBackend, From: time.Minute, To: 2 * time.Minute}, // all targets
		},
	})
	if !i.StatsDropped(5*time.Minute, "node-3") {
		t.Error("window did not force stats drop")
	}
	if i.StatsDropped(5*time.Minute, "node-1") {
		t.Error("window leaked onto another target")
	}
	if i.StatsDropped(7*time.Minute, "node-3") {
		t.Error("window active past To")
	}
	if !i.BackendDown(90*time.Second, "any-svc", "any-container") {
		t.Error("target-less window did not apply to all")
	}
}

func TestScaled(t *testing.T) {
	base := Config{
		Seed: 1, VerticalFailProb: 0.4, StartFailProb: 0.2, StartSlowProb: 0.2,
		StatsDropProb: 0.4, BackendDownProb: 0.3, BackendDownFor: 5 * time.Second,
		Windows: []Window{{Kind: KindStats, From: 0, To: time.Second}},
	}
	half := base.Scaled(0.5)
	if half.VerticalFailProb != 0.2 || half.StatsDropProb != 0.2 || half.BackendDownProb != 0.15 {
		t.Errorf("Scaled(0.5) = %+v", half)
	}
	if half.BackendDownFor != 5*time.Second || len(half.Windows) != 1 {
		t.Error("Scaled should preserve durations and windows")
	}
	zero := base.Scaled(0)
	if zero.Enabled() {
		t.Error("Scaled(0) still enabled")
	}
	over := base.Scaled(10)
	if over.VerticalFailProb != 1 {
		t.Errorf("Scaled(10) prob = %v, want clamped to 1", over.VerticalFailProb)
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{VerticalFailProb: 1.2}).Validate(); err == nil {
		t.Error("out-of-range probability accepted")
	}
	if err := (Config{Windows: []Window{{Kind: "bogus", From: 0, To: time.Second}}}).Validate(); err == nil {
		t.Error("unknown window kind accepted")
	}
	if err := (Config{Windows: []Window{{Kind: KindStats, From: time.Second, To: time.Second}}}).Validate(); err == nil {
		t.Error("empty window accepted")
	}
	ok := Config{Seed: 1, StatsDropProb: 0.5, Windows: []Window{{Kind: KindBackend, From: 0, To: time.Minute}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// refRoll is the injector's draw written out in one pass: the seed XOR the
// golden ratio, FNV-1a over kind, target and n's eight little-endian bytes,
// then the splitmix64 finaliser.
func refRoll(seed int64, kind Kind, target string, n uint64) float64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(string(kind) + target) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	for k := 0; k < 8; k++ {
		h ^= uint64(byte(n >> (8 * k)))
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / (1 << 53)
}

// TestRollMatchesReference pins every fault draw bit for bit to refRoll
// over random (seed, kind, target, n), so the shared hash in package sim
// leaves every fault schedule where it was.
func TestRollMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kinds := []Kind{KindVertical, KindStart, KindStats, KindBackend}
	targets := []string{"", "node-3", "api-c17", "checkout/2"}
	for trial := 0; trial < 4000; trial++ {
		i := &Injector{cfg: Config{Seed: rng.Int63() - rng.Int63()}}
		kind, target := kinds[rng.Intn(len(kinds))], targets[rng.Intn(len(targets))]
		n := rng.Uint64()
		if got, want := i.roll(kind, target, n), refRoll(i.cfg.Seed, kind, target, n); got != want {
			t.Fatalf("roll(%d, %s, %q, %d) = %v, want %v", i.cfg.Seed, kind, target, n, got, want)
		}
	}
}

// TestDrawsAllocateNothing: the per-poll and per-request draws hash their
// two keys in place. The IDs are longer than the compiler's 32-byte stack
// buffer, so joining kind and target into one string would allocate.
func TestDrawsAllocateNothing(t *testing.T) {
	i := New(Config{Seed: 3, StatsDropProb: 0.5, BackendDownProb: 0.5})
	node := "zone-3-rack-17-node-0000000000042"
	service := "checkout-service"
	container := service + "-replica-0000000000000017"
	if a := testing.AllocsPerRun(100, func() {
		i.StatsDropped(time.Second, node)
		i.BackendDown(time.Minute, service, container)
	}); a != 0 {
		t.Errorf("StatsDropped + BackendDown allocate %v times, want 0", a)
	}
}
