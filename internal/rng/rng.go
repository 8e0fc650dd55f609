// Package rng provides a small, deterministic, splittable pseudo-random
// number generator for reproducible simulation experiments.
//
// The protocol and the experiment harness need independent random streams
// per worm, per round, and per trial so that (a) results are reproducible
// from a single master seed, and (b) changing the number of consumers of
// one stream does not perturb the others. The generator is a SplitMix64
// seeder feeding a xoshiro256** core, following the reference designs by
// Blackman and Vigna. Only the standard library is used.
package rng

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used both to seed xoshiro256** and to derive child seeds.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a deterministic xoshiro256** generator. The zero value is not
// a valid source; use New or Split to obtain one.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given seed. Distinct seeds yield
// streams that are statistically independent for simulation purposes.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = splitmix64(&sm)
	}
	// Avoid the (astronomically unlikely) all-zero state.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
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

// Split derives a new independent Source from r. The child stream is a
// deterministic function of r's state at the time of the call, and calling
// Split advances r, so successive Splits yield distinct children.
func (r *Source) Split() *Source {
	seed := r.Uint64()
	return New(seed ^ 0x6a09e667f3bcc909)
}

// SplitN derives n independent child sources in one call.
func (r *Source) SplitN(n int) []*Source {
	children := make([]*Source, n)
	for i := range children {
		children[i] = r.Split()
	}
	return children
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo) without
// importing math/bits semantics beyond the standard language.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + hiPart + t>>32
	return hi, lo
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniformly random permutation of [0, n) as a slice,
// generated with the Fisher-Yates shuffle.
func (r *Source) Perm(n int) []int {
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
