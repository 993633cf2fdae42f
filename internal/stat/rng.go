// Package stat provides the numeric substrate the fusion algorithms need: a
// deterministic random number generator (the LTM baseline's Gibbs sampler and
// the synthetic data generators draw from it), compensated summation,
// log-odds helpers, and small-set (bitset) utilities for subset enumeration
// in the inclusion–exclusion computations.
package stat

import "math/rand"

// RNG is a deterministic random source. It wraps math/rand with the samplers
// the rest of the repository needs, so all stochastic components (data
// generation, Gibbs sampling) are reproducible from a single seed.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// SampleWithoutReplacement returns k distinct indexes drawn uniformly from
// [0, n) in random order. It panics if k > n.
func (g *RNG) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("stat: sample size exceeds population")
	}
	perm := g.r.Perm(n)
	return perm[:k]
}
