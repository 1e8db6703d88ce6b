package sim

import "math/bits"

// RNG is a small, fast, deterministic pseudo-random generator (SplitMix64).
// Every simulated entity owns its own RNG derived from the run seed, so the
// random stream an entity sees is independent of event interleaving.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed. When deriving many stream
// seeds from indices, do not use the SplitMix64 golden increment
// (0x9e3779b97f4a7c15) as the index multiplier: seeds that differ by the
// increment produce the same stream shifted by one draw.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Split derives an independent child generator; the parent advances once.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64() ^ 0x9e3779b97f4a7c15) }

// State returns the generator's raw position. Two generators with equal
// State produce identical streams, which is what state capture encodes (and
// the determinism audit compares) for every per-entity stream.
func (r *RNG) State() uint64 { return r.state }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n(0)")
	}
	// Lemire's multiply-shift rejection method.
	threshold := (-n) % n
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= threshold {
			return hi
		}
	}
}

// Intn returns a uniform int in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
