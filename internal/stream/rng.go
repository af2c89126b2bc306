package stream

// sampleRNG is the replay buffer's deterministic sampling stream: a
// SplitMix64 generator whose entire state is one uint64, so checkpoints
// serialize it and a restored buffer resumes the *exact* draw sequence the
// uninterrupted one would have produced.  Every ReplayBuffer owns its own
// instance — nothing is shared and nothing is package-global — so N
// replicated trainers sampling concurrently are reproducible and race-free
// by construction: replica i's stream is a pure function of its seed, not
// of scheduling.
type sampleRNG struct {
	state uint64
}

// newSampleRNG seeds a generator.  Adjacent seeds yield decorrelated
// streams (SplitMix64 is designed as a seed scrambler), which is exactly
// what per-replica seeds base+id need.
func newSampleRNG(seed int64) *sampleRNG {
	return &sampleRNG{state: uint64(seed)}
}

// restoreSampleRNG resumes a generator at a checkpointed state.
func restoreSampleRNG(state uint64) *sampleRNG {
	return &sampleRNG{state: state}
}

// State returns the serializable generator state.
func (r *sampleRNG) State() uint64 { return r.state }

// next advances the stream (Steele, Lea & Flood's SplitMix64).
func (r *sampleRNG) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// uint64n returns a uniform value in [0, n) via rejection sampling, so the
// distribution is exactly uniform for every n (no modulo bias).
func (r *sampleRNG) uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stream: uint64n with n == 0")
	}
	limit := -n % n // (2^64 - n) mod n: values below it would bias the modulus
	for {
		if v := r.next(); v >= limit {
			return v % n
		}
	}
}

// Intn returns a uniform int in [0, n); n must be positive.
func (r *sampleRNG) Intn(n int) int {
	if n <= 0 {
		panic("stream: Intn with non-positive n")
	}
	return int(r.uint64n(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n); n must be positive.
func (r *sampleRNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stream: Int63n with non-positive n")
	}
	return int64(r.uint64n(uint64(n)))
}
