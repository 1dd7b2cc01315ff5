// Package rng provides seeded, splittable random number generation and the
// sampling helpers used throughout the Glimpse pipeline. Every stochastic
// component in the repository draws its randomness through this package so
// that whole experiments are reproducible from a single seed.
package rng

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// RNG wraps math/rand with deterministic splitting: Split derives an
// independent child stream from a parent seed and a label, so concurrent
// components can be seeded stably regardless of call order.
type RNG struct {
	seed int64
	r    *rand.Rand
}

// New returns an RNG seeded with seed.
func New(seed int64) *RNG {
	return &RNG{seed: seed, r: rand.New(rand.NewSource(seed))}
}

// Split derives a child RNG whose stream depends only on the parent seed and
// the label, not on how much the parent has been consumed.
func (g *RNG) Split(label string) *RNG {
	return New(g.splitSeed(label))
}

// SplitInto reseeds dst in place to the stream Split(label) returns,
// reusing dst's math/rand source, and returns dst; a nil dst gets a fresh
// Split. Whatever dst drew before is forgotten.
func (g *RNG) SplitInto(dst *RNG, label string) *RNG {
	if dst == nil {
		return g.Split(label)
	}
	dst.Reseed(g.splitSeed(label))
	return dst
}

// Reseed restarts g on the stream New(seed) returns, reusing g's
// math/rand source.
func (g *RNG) Reseed(seed int64) {
	g.seed = seed
	g.r.Seed(seed)
}

// splitSeed is the 64-bit FNV-1a hash of "<seed>/<label>", the child
// seed of Split.
func (g *RNG) splitSeed(label string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var buf [24]byte
	h := uint64(offset64)
	for _, c := range append(strconv.AppendInt(buf[:0], g.seed, 10), '/') {
		h = (h ^ uint64(c)) * prime64
	}
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * prime64
	}
	return int64(h)
}

// Seed returns the seed this RNG was created with.
func (g *RNG) Seed() int64 { return g.seed }

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform int64 in [0, n).
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Normal returns a normal variate with the given mean and stddev.
func (g *RNG) Normal(mean, std float64) float64 {
	return mean + std*g.r.NormFloat64()
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle permutes the first n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Categorical samples an index proportionally to the non-negative weights.
// A zero-sum weight vector falls back to a uniform draw.
func (g *RNG) Categorical(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: Categorical with no weights")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("rng: invalid weight %g at %d", w, i))
		}
		total += w
	}
	if total <= 0 {
		return g.Intn(len(weights))
	}
	u := g.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// SampleWithoutReplacement draws k distinct indices uniformly from [0, n).
// If k >= n it returns all n indices in random order.
func (g *RNG) SampleWithoutReplacement(n, k int) []int {
	if k >= n {
		return g.Perm(n)
	}
	// Floyd's algorithm.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := g.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	g.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Gumbel returns a standard Gumbel variate (for softmax-without-replacement
// style sampling).
func (g *RNG) Gumbel() float64 {
	u := g.Float64()
	for u == 0 {
		u = g.Float64()
	}
	return -math.Log(-math.Log(u))
}

// Exponential returns an exponential variate with the given rate.
func (g *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("rng: non-positive rate %g", rate))
	}
	u := g.Float64()
	for u == 0 {
		u = g.Float64()
	}
	return -math.Log(u) / rate
}
