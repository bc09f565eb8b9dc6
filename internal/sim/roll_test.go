package sim

import (
	"math"
	"math/rand"
	"testing"
)

// TestRollIsUniformAndStable spot-checks the hash: bounded to [0,1),
// deterministic, and sensitive to each input.
func TestRollIsUniformAndStable(t *testing.T) {
	sum := 0.0
	const n = 10000
	for i := uint64(0); i < n; i++ {
		v := Roll(1, "id", i)
		if v < 0 || v >= 1 {
			t.Fatalf("Roll out of [0,1): %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Roll mean = %v, want ~0.5", mean)
	}
	if Roll(1, "id", 9) != Roll(1, "id", 9) {
		t.Error("Roll is not deterministic")
	}
	if Roll(1, "id", 9) == Roll(2, "id", 9) || Roll(1, "id", 9) == Roll(1, "di", 9) || Roll(1, "id", 9) == Roll(1, "id", 10) {
		t.Error("Roll insensitive to an input")
	}
}

// refRoll is Roll as a single pass over seed, id and n: the construction
// RollPrefix and RollFrom split in two.
func refRoll(seed int64, id string, n uint64) float64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(id) {
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

// TestRollPrefixMatchesRoll: a prefix hashed once and finished per draw
// gives bit-for-bit the draw of hashing the whole input every time, which
// is what lets the platform hash each edge's "call|from->to" once.
func TestRollPrefixMatchesRoll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ids := []string{"", "a", "call|gateway->orders", "call|catalog->db", "svc-17-c42"}
	for trial := 0; trial < 2000; trial++ {
		seed := rng.Int63() - rng.Int63()
		id := ids[trial%len(ids)]
		n := rng.Uint64()
		want := refRoll(seed, id, n)
		if got := RollFrom(RollPrefix(seed, id), n); got != want {
			t.Fatalf("RollFrom(RollPrefix(%d, %q), %d) = %v, want %v", seed, id, n, got, want)
		}
		if got := Roll(seed, id, n); got != want {
			t.Fatalf("Roll(%d, %q, %d) = %v, want %v", seed, id, n, got, want)
		}
	}
}
