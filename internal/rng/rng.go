// Package rng provides a deterministic, splittable pseudo-random number
// generator used by every stochastic component of the lemonade library.
//
// Reproducibility is a hard requirement for the experiments: every figure in
// EXPERIMENTS.md must regenerate bit-identically. All simulation code
// therefore takes an explicit *RNG; there is no global generator. Streams
// can be derived by label (Derive) so that adding a new consumer does not
// perturb the draws seen by existing ones.
//
// The generator is xoshiro256** seeded through SplitMix64, the combination
// recommended by Blackman & Vigna. It is not cryptographically secure and is
// never used for key material in the security-sensitive paths (those use
// crypto/rand via the keygen helpers in the using packages when real secrecy
// matters; the simulations only need statistical quality).
package rng

import (
	"math"
	"strconv"
)

// RNG is a xoshiro256** generator. It is NOT safe for concurrent use; derive
// one generator per goroutine with Derive or Split.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed via SplitMix64, so any
// seed (including 0) yields a well-mixed state.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.seed(seed)
	return r
}

// seed (re)initializes the generator in place from a SplitMix64-mixed seed
// — New without the allocation, for callers cycling one generator through
// many streams.
func (r *RNG) seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		r.s[i] = z ^ (z >> 31)
	}
}

// stateHash folds the generator's state into an FNV-1a accumulator; Derive
// and DeriveIndex extend it with label bytes to pick an independent stream.
func (r *RNG) stateHash() uint64 {
	h := uint64(14695981039346656037) // FNV offset basis
	for i := range r.s {
		s := r.s[i]
		for b := 0; b < 8; b++ {
			h ^= (s >> (8 * b)) & 0xFF
			h *= 1099511628211
		}
	}
	return h
}

// Derive returns a new independent generator whose seed is a hash of this
// generator's seed material and the label. Deriving with the same label
// twice yields identical streams; the parent is not advanced.
func (r *RNG) Derive(label string) *RNG {
	h := r.stateHash()
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return New(h)
}

// DeriveIndex is exactly Derive(label + decimal representation of i) but
// allocation-free, for per-trial stream derivation in hot loops. The stream
// is bit-identical to Derive(fmt.Sprintf(label+"%d", i)); the equivalence is
// locked down by TestDeriveIndexEquivalence.
func (r *RNG) DeriveIndex(label string, i int) *RNG {
	out := &RNG{}
	r.IndexDeriver(label).SeedInto(out, i)
	return out
}

// IndexDeriver is the amortized form of DeriveIndex: the FNV accumulation
// over the parent's state and the label — identical for every trial of a
// run — is folded once at construction, and SeedInto finishes the hash
// with just the index digits into a caller-held generator. It captures the
// parent's state at construction time, exactly as a DeriveIndex call at
// that moment would.
type IndexDeriver struct {
	prefix uint64
}

// IndexDeriver returns a deriver for the given label over this generator's
// current state.
func (r *RNG) IndexDeriver(label string) IndexDeriver {
	h := r.stateHash()
	for j := 0; j < len(label); j++ {
		h ^= uint64(label[j])
		h *= 1099511628211
	}
	return IndexDeriver{prefix: h}
}

// SeedInto re-seeds dst with the stream for index i, leaving it in exactly
// the state DeriveIndex(label, i) on the source generator would have
// returned — without allocating.
func (d IndexDeriver) SeedInto(dst *RNG, i int) {
	h := d.prefix
	var buf [20]byte // fits int64 including sign
	b := strconv.AppendInt(buf[:0], int64(i), 10)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	dst.seed(h)
}

// Split returns a new generator seeded from this generator's next output,
// advancing the parent. Useful for fanning out per-trial streams.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// State returns the generator's full internal state — the exact stream
// position — for checkpointing. Restoring it with SetState resumes the
// stream bit-identically, which is what lets a recovered architecture
// replay as if the process had never died.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state with a value
// previously captured by State. The all-zero state is the xoshiro256**
// fixed point (every output would be zero) and is rejected by falling
// back to the New(0) seeding, so a corrupted checkpoint cannot wedge the
// generator.
func (r *RNG) SetState(s [4]uint64) {
	if s == [4]uint64{} {
		*r = *New(0)
		return
	}
	r.s = s
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in (0, 1), never exactly 0 —
// convenient for inverse-CDF sampling where log(0) must be avoided.
func (r *RNG) Float64Open() float64 {
	for {
		v := r.Float64()
		if v > 0 {
			return v
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		//lemonvet:allow panic mirrors math/rand.Intn contract; non-positive n is a caller bug
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := (-bound) % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns a variate with the given log-space mean and stddev.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Bytes fills b with random bytes.
func (r *RNG) Bytes(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

// Bool returns a fair coin flip.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }

// Poisson returns a Poisson(lambda) variate. Knuth's product method for
// small lambda; for large lambda it splits recursively to avoid underflow.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 500 {
		// split: Poisson(a+b) = Poisson(a) + Poisson(b)
		return r.Poisson(lambda/2) + r.Poisson(lambda/2)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64Open()
		if p <= l {
			return k
		}
		k++
	}
}
