package opt

import "math/rand"

// Parameters of math/rand's additive lagged Fibonacci source.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	// rngMod is the modulus of the Park–Miller generator that seeds the
	// state words, a Mersenne prime.
	rngMod = 1<<31 - 1
	// rngSeedMul is that generator's multiplier.
	rngSeedMul = 48271
)

// rngJump[i] is rngSeedMul^(21+3i) mod rngMod: the multiplier that
// takes the reduced seed straight to the first of the three generator
// steps state word i is built from.
var rngJump = func() (t [rngLen]uint64) {
	m := uint64(1)
	for n := 0; n < 21; n++ {
		m = mulMod(m, rngSeedMul)
	}
	for i := range t {
		t[i] = m
		m = mulMod(mulMod(mulMod(m, rngSeedMul), rngSeedMul), rngSeedMul)
	}
	return t
}()

// mulMod returns a·b mod rngMod for a, b < rngMod, folding the product
// once over the Mersenne modulus (2³¹ ≡ 1) instead of dividing.
func mulMod(a, b uint64) uint64 {
	x := a * b
	x = x&rngMod + x>>31
	if x >= rngMod {
		x -= rngMod
	}
	return x
}

// newRand returns a generator whose stream is bit-identical to
// rand.New(rand.NewSource(seed)) — every method of *rand.Rand, for
// every seed — at a cost proportional to the draws actually made.
//
// rand.NewSource fills all 607 words of its state when seeded: about
// 1,840 generator steps and a 5 KB allocation, while a minimization
// start draws tens of numbers. lazySource instead computes a seeded
// state word only when a draw first reads it, and keeps only the
// outputs drawn so far. The seeding table rngCooked is copied from the
// Go toolchain's math/rand (rngcooked.go); Go 1 compatibility freezes
// rand.NewSource's stream, so the copy cannot drift from it.
func newRand(seed int64) *rand.Rand {
	s := &lazySource{}
	s.Seed(seed)
	return rand.New(s)
}

// lazySource is math/rand's source, x_k = x_{k−607} + x_{k−273} over
// 64-bit words, evaluated on demand. Draw k (1-based) reads the seeded
// word vec[(334−k) mod 607] for k ≤ 607 and x_{k−607} after that, plus
// vec[607−k] for k ≤ 273 and x_{k−273} after that.
type lazySource struct {
	seed uint64 // reduced seed, in [1, rngMod)
	k    int    // draws made
	// out holds the outputs drawn so far: x_k at (k−1) mod rngLen. It
	// grows to at most rngLen words.
	out []uint64
}

// Seed implements rand.Source, reducing the seed exactly as
// rngSource.Seed does.
func (s *lazySource) Seed(seed int64) {
	seed %= rngMod
	if seed < 0 {
		seed += rngMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.k = 0
	if s.out == nil {
		// Room for a typical start's draws without regrowing.
		s.out = make([]uint64, 0, 64)
	}
	s.out = s.out[:0]
}

// vec returns the seeded state word i:
// rngCooked[i] ⊕ (s₁≪40 ⊕ s₂≪20 ⊕ s₃) for the three consecutive
// generator values s₁..s₃ starting at step 21+3i.
func (s *lazySource) vec(i int) uint64 {
	s1 := mulMod(s.seed, rngJump[i])
	s2 := mulMod(s1, rngSeedMul)
	s3 := mulMod(s2, rngSeedMul)
	return uint64(rngCooked[i]) ^ (s1<<40 ^ s2<<20 ^ s3)
}

// Uint64 implements rand.Source64.
func (s *lazySource) Uint64() uint64 {
	s.k++
	k := s.k
	var feed, tap uint64
	if k <= rngLen {
		feed = s.vec((rngLen - rngTap - k + rngLen) % rngLen)
	} else {
		feed = s.out[(k-1)%rngLen]
	}
	if k <= rngTap {
		tap = s.vec(rngLen - k)
	} else {
		tap = s.out[(k-rngTap-1)%rngLen]
	}
	x := feed + tap
	if k <= rngLen {
		if len(s.out) == cap(s.out) {
			// Double, but never past the lag: append would grow to
			// more words than the ring ever holds.
			grown := make([]uint64, len(s.out), min(2*cap(s.out), rngLen))
			copy(grown, s.out)
			s.out = grown
		}
		s.out = append(s.out, x)
	} else {
		s.out[(k-1)%rngLen] = x
	}
	return x
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
