package sim

// Roll maps (seed, id, n) to a uniform [0,1) draw: the seed XOR the golden
// ratio, FNV-1a over id and then n's eight little-endian bytes, and a
// splitmix64 finaliser. Fault draws, shed decisions and call-probability
// draws use it instead of a shared random stream, so adding one never
// perturbs another and runs stay byte-identical at any parallelism.
func Roll(seed int64, id string, n uint64) float64 {
	return RollFrom(RollPrefix(seed, id), n)
}

// RollPrefix returns Roll's hash state after mixing in seed and id. FNV-1a
// consumes its input one byte at a time, so RollFrom(RollPrefix(seed, id),
// n) equals Roll(seed, id, n) exactly: a caller drawing many times under
// one id hashes it once.
func RollPrefix(seed int64, id string) uint64 {
	return RollMix(uint64(seed)^0x9e3779b97f4a7c15, id)
}

// RollMix mixes s into a RollPrefix state, so a draw keyed by two strings
// (a fault kind and its target) hashes both without concatenating them:
// RollMix(RollPrefix(seed, a), b) equals RollPrefix(seed, a+b).
func RollMix(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211 // FNV-1a prime
	}
	return h
}

// RollFrom finishes a Roll from a RollPrefix or RollMix state.
func RollFrom(h uint64, n uint64) float64 {
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
