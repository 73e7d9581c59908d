// Package rng provides the deterministic, splittable randomness used
// throughout the simulation study.
//
// Every figure in the thesis is a statistic over 1000 randomized runs,
// and "the same random sequence was used to test each of the
// algorithms" (§4.1) — so reproducibility is part of the experiment
// design, not a convenience. A Source derives independent child
// sources from string/integer labels with a SplitMix64 hash, so the
// run (figure, case, run-index) always sees the same draws no matter
// how work is scheduled.
package rng

import "math/rand"

// Source is a deterministic random source. It is not safe for
// concurrent use; derive one source per goroutine with Child.
type Source struct {
	r *rand.Rand
	// src is r's generator. Intn and ShuffleSlice draw from it directly
	// with math/rand's own arithmetic, so they consume exactly the
	// values r's methods would, without r's method chain or Shuffle's
	// per-swap closure call.
	src rand.Source
}

func newSource(seed int64) *Source {
	src := rand.NewSource(seed)
	return &Source{r: rand.New(src), src: src}
}

// New returns a source seeded with seed.
func New(seed int64) *Source {
	return newSource(int64(mix(uint64(seed))))
}

// Child derives an independent source labelled by the given parts.
// Equal labels on equal parents yield identical child streams.
func (s *Source) Child(parts ...int64) *Source {
	h := uint64(s.src.Int63()) // advance parent deterministically
	for _, p := range parts {
		h = mix(h ^ uint64(p))
	}
	return newSource(int64(h))
}

// ChildLabel derives an independent source from a string label without
// advancing the parent, so named children are order-independent.
func (s *Source) ChildLabel(label string, parts ...int64) *Source {
	h := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < len(label); i++ {
		h = mix(h ^ uint64(label[i]))
	}
	for _, p := range parts {
		h = mix(h ^ uint64(p))
	}
	return newSource(int64(h))
}

// Intn returns a uniform int in [0, n). n must be > 0. It is
// math/rand's Rand.Intn, draw for draw.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: invalid argument to Intn")
	}
	if n > 1<<31-1 {
		return int(s.r.Int63n(int64(n)))
	}
	n32 := int32(n)
	if n32&(n32-1) == 0 { // power of two: mask
		return int(s.int31() & (n32 - 1))
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n32))
	v := s.int31()
	for v > max {
		v = s.int31()
	}
	return int(v % n32)
}

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 { return s.src.Int63() }

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Bool returns a fair coin flip.
func (s *Source) Bool() bool { return s.Intn(2) == 0 }

// Perm returns a uniform permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle permutes n elements via the given swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// ShuffleSlice permutes x in place, drawing exactly what
// s.Shuffle(len(x), swap) would and leaving x in the same order.
func ShuffleSlice[T any](s *Source, x []T) {
	i := len(x) - 1
	for ; i > 1<<31-1-1; i-- {
		j := int(s.r.Int63n(int64(i + 1)))
		x[i], x[j] = x[j], x[i]
	}
	for ; i > 0; i-- {
		j := s.uint31n(uint32(i + 1))
		x[i], x[j] = x[j], x[i]
	}
}

// int31 is math/rand's Rand.Int31.
func (s *Source) int31() int32 { return int32(s.src.Int63() >> 32) }

// uint31n is math/rand's unexported Rand.int31n, the multiply-shift
// bounded draw behind Shuffle, for 0 < n < 1<<31.
func (s *Source) uint31n(n uint32) uint32 {
	prod := uint64(uint32(s.src.Int63()>>31)) * uint64(n)
	if low := uint32(prod); low < n {
		thresh := -n % n
		for low < thresh {
			prod = uint64(uint32(s.src.Int63()>>31)) * uint64(n)
			low = uint32(prod)
		}
	}
	return uint32(prod >> 32)
}

// mix is the SplitMix64 finalizer: a cheap bijective hash with good
// avalanche, used to decorrelate derived seeds.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
