package workload

import (
	"math/rand"

	"hyrise/internal/model"
)

// Generator produces uint64 column values with a controlled distribution.
type Generator interface {
	// Next returns one value.
	Next() uint64
	// Reset restores the initial state so streams are reproducible.
	Reset()
}

// UniformGen draws uniformly from [0, Domain).  A uniform distribution is
// the paper's choice for all experiments (§7: "values are generated
// uniformly at random", the worst case for cache utilization).
type UniformGen struct {
	Domain uint64
	seed   int64
	rng    *rand.Rand
}

// NewUniform returns a uniform generator over a domain of the given size.
func NewUniform(domain uint64, seed int64) *UniformGen {
	if domain == 0 {
		domain = 1
	}
	return &UniformGen{Domain: domain, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// NewUniformForUniqueFraction sizes the domain so that n draws contain
// about frac·n distinct values (the λ parameter of §7).  frac >= 1 yields
// a UniqueGen instead, which guarantees 100% distinct values.
func NewUniformForUniqueFraction(n int, frac float64, seed int64) Generator {
	if frac >= 1 {
		return NewUnique(seed)
	}
	d := model.DomainForUniqueFraction(n, frac)
	return NewUniform(uint64(d), seed)
}

// Next implements Generator.
func (g *UniformGen) Next() uint64 { return g.rng.Uint64() % g.Domain }

// Reset implements Generator.
func (g *UniformGen) Reset() { g.rng = rand.New(rand.NewSource(g.seed)) }

// UniqueGen produces a stream with no repeated values (λ = 100%), spread
// pseudo-randomly over the key space: a bijective mix of a counter.
type UniqueGen struct {
	ctr  uint64
	seed int64
}

// NewUnique returns a generator of never-repeating values.
func NewUnique(seed int64) *UniqueGen { return &UniqueGen{seed: seed, ctr: uint64(seed)} }

// Next implements Generator; it applies SplitMix64's finalizer, a bijection
// on 64-bit integers, so outputs never collide.
func (g *UniqueGen) Next() uint64 {
	g.ctr++
	z := g.ctr + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Reset implements Generator.
func (g *UniqueGen) Reset() { g.ctr = uint64(g.seed) }

// ZipfGen draws from a Zipf distribution over [0, Domain) — skewed
// enterprise domains (few very frequent values), used by ablation
// experiments to contrast with the paper's uniform worst case.
type ZipfGen struct {
	Domain uint64
	s      float64
	seed   int64
	z      *rand.Zipf
}

// NewZipf returns a Zipf generator with skew s > 1.
func NewZipf(domain uint64, s float64, seed int64) *ZipfGen {
	g := &ZipfGen{Domain: domain, s: s, seed: seed}
	g.Reset()
	return g
}

// Next implements Generator.
func (g *ZipfGen) Next() uint64 { return g.z.Uint64() }

// Reset implements Generator.
func (g *ZipfGen) Reset() {
	g.z = rand.NewZipf(rand.New(rand.NewSource(g.seed)), g.s, 1, g.Domain-1)
}

// Fill draws n values into a new slice.
func Fill(g Generator, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// FixedString renders v as a 16-byte zero-padded hexadecimal string whose
// lexicographic order matches numeric order.
func FixedString(v uint64) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}
