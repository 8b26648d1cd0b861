// Package rng provides deterministic pseudo-random number generation for the
// ExFlow simulator.
//
// Every stochastic component in the repository (synthetic routing kernels,
// token sampling, workload generation, simulated annealing) draws from this
// package rather than math/rand so that experiments are reproducible
// bit-for-bit across runs and machines, and so that independent streams can
// be derived for each token/layer without contention.
package rng

import "math"

// gamma is SplitMix64's state increment.
const gamma = 0x9e3779b97f4a7c15

// splitMix64 advances a SplitMix64 state and returns the next output. It is
// used both as a standalone mixer (per-token seeding) and to initialize
// xoshiro256** state from a single seed.
func splitMix64(state *uint64) uint64 {
	*state += gamma
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 deterministically mixes an arbitrary set of 64-bit values into a
// single well-distributed 64-bit value. It is the repository-wide way to
// derive independent seeds, e.g. Mix64(seed, tokenID, layer).
func Mix64(vs ...uint64) uint64 {
	state := uint64(MixPrefix(vs...))
	return splitMix64(&state)
}

// Prefix is Mix64's state after folding a fixed list of leading values, for
// callers that mix many seeds sharing that list: MixPrefix(a, b).Mix64(c)
// equals Mix64(a, b, c) at the cost of one SplitMix64 output.
type Prefix uint64

// MixPrefix folds vs into Mix64's state.
func MixPrefix(vs ...uint64) Prefix {
	state := uint64(0x243f6a8885a308d3) // pi digits; arbitrary non-zero
	for _, v := range vs {
		state ^= v
		state += gamma // a splitMix64 step whose output is unused
	}
	return Prefix(state)
}

// Mix64 returns Mix64 of the prefix's values followed by v.
func (p Prefix) Mix64(v uint64) uint64 {
	state := (uint64(p) ^ v) + gamma
	return splitMix64(&state)
}

// FirstFloat64 returns New(seed).Float64() without building the generator:
// xoshiro256**'s first output reads only s1, the seed's second SplitMix64
// output.
func FirstFloat64(seed uint64) float64 {
	state := seed + gamma // skip s0
	s1 := splitMix64(&state)
	return float64((rotl(s1*5, 7)*9)>>11) / (1 << 53)
}

// RNG is a xoshiro256** generator. The zero value is not valid; use New.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// New returns a generator seeded from a single 64-bit seed via SplitMix64,
// following the reference initialization recommended by the xoshiro authors.
//
// New stays within the compiler's inlining budget (the seeding lives in
// seedFrom), so a generator its caller uses only locally stays on the stack.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.seedFrom(seed)
	return r
}

// seedFrom fills the state with the first four SplitMix64 outputs of seed.
func (r *RNG) seedFrom(seed uint64) {
	state := seed
	r.s0 = splitMix64(&state)
	r.s1 = splitMix64(&state)
	r.s2 = splitMix64(&state)
	r.s3 = splitMix64(&state)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be faster, but the
	// simple modulo of a 64-bit value has negligible bias for the n used here
	// (n is at most a few thousand) and is easier to audit.
	return int(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n) via Fisher-Yates.
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

// Shuffle permutes the integers in s in place.
func (r *RNG) Shuffle(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// NormFloat64 returns a standard normal variate using the Box-Muller
// transform. It intentionally trades a little speed for having no internal
// cached state, keeping RNG copies independent.
func (r *RNG) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		if u1 > 0 {
			u2 := r.Float64()
			return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		}
	}
}

// Exponential returns an Exp(1) variate.
func (r *RNG) Exponential() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Categorical samples an index from the unnormalized non-negative weights.
// It panics if the weights are empty or sum to zero.
func (r *RNG) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative categorical weight")
		}
		total += w
	}
	if len(weights) == 0 || total == 0 {
		panic("rng: categorical with empty or zero-sum weights")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1 // floating-point slack
}

// Gamma returns a Gamma(shape, 1) variate using the Marsaglia-Tsang method.
// shape must be positive.
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("rng: Gamma with non-positive shape")
	}
	if shape < 1 {
		// Boost to shape+1 and scale back (Marsaglia-Tsang section 6).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet samples a probability vector from a symmetric Dirichlet
// distribution with concentration alpha over n categories.
func (r *RNG) Dirichlet(n int, alpha float64) []float64 {
	p := make([]float64, n)
	total := 0.0
	for i := range p {
		p[i] = r.Gamma(alpha)
		total += p[i]
	}
	if total == 0 {
		// Degenerate draw (possible only for pathologically tiny alpha);
		// fall back to uniform rather than returning NaNs.
		for i := range p {
			p[i] = 1 / float64(n)
		}
		return p
	}
	for i := range p {
		p[i] /= total
	}
	return p
}

// DirichletWeighted samples from Dirichlet(alpha * base), i.e. a Dirichlet
// whose mean is the (normalized) base distribution and whose concentration
// around the mean grows with alpha.
func (r *RNG) DirichletWeighted(base []float64, alpha float64) []float64 {
	p := make([]float64, len(base))
	total := 0.0
	for i, b := range base {
		a := alpha * b
		if a <= 0 {
			a = 1e-9
		}
		p[i] = r.Gamma(a)
		total += p[i]
	}
	if total == 0 {
		for i := range p {
			p[i] = 1 / float64(len(p))
		}
		return p
	}
	for i := range p {
		p[i] /= total
	}
	return p
}
