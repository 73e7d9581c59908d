package rng

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dynvote/internal/proc"
)

// TestStreamMatchesMathRand holds every Source method to the
// math/rand.Rand it stands in for: per seed, one Source and one Rand on
// the same seed run the same randomly interleaved sequence of calls,
// and every result must agree. Intn and ShuffleSlice reimplement
// math/rand's arithmetic on the bare generator, so this is what makes
// "no golden moved" a property of the code rather than of the seeds the
// goldens use.
func TestStreamMatchesMathRand(t *testing.T) {
	intns := []int{
		1, 2, 4, 64, 1024, 1 << 30, // powers of two (1 included)
		3, 7, 63, 1023, 1025, 1<<30 + 1, 1<<31 - 1, // odd; 1<<30+1 rejects half its draws
		6, 1000, 1 << 31, 1<<31 + 1, 1 << 40, 3<<40 + 5, math.MaxInt64, // even, and past int31
	}
	const steps = 400
	for seed := int64(0); seed < 100; seed++ {
		s := newSource(seed)
		ref := rand.New(rand.NewSource(seed))
		pick := rand.New(rand.NewSource(^seed)) // the interleaving, independent of both
		for step := 0; step < steps; step++ {
			switch op := pick.Intn(9); op {
			case 0:
				n := intns[pick.Intn(len(intns))]
				if got, want := s.Intn(n), ref.Intn(n); got != want {
					t.Fatalf("seed %d step %d: Intn(%d) = %d, math/rand %d", seed, step, n, got, want)
				}
			case 1:
				if got, want := s.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d step %d: Int63 = %d, math/rand %d", seed, step, got, want)
				}
			case 2:
				if got, want := s.Float64(), ref.Float64(); got != want {
					t.Fatalf("seed %d step %d: Float64 = %v, math/rand %v", seed, step, got, want)
				}
			case 3:
				if got, want := s.Bool(), ref.Intn(2) == 0; got != want {
					t.Fatalf("seed %d step %d: Bool = %v, math/rand %v", seed, step, got, want)
				}
			case 4:
				n := pick.Intn(40)
				if got, want := s.Perm(n), ref.Perm(n); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Perm(%d) = %v, math/rand %v", seed, step, n, got, want)
				}
			case 5:
				got := identity[int](pick.Intn(40))
				want := slices.Clone(got)
				s.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
				ref.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Shuffle = %v, math/rand %v", seed, step, got, want)
				}
			case 6:
				checkShuffleSlice(t, s, ref, identity[proc.ID](pick.Intn(1100)), seed, step)
			case 7:
				checkShuffleSlice(t, s, ref, identity[int32](pick.Intn(1100)), seed, step)
			case 8:
				// ShuffleSlice's bounded draw at bounds no test slice
				// reaches: at 1431655766, just above 2^32/3, it rejects
				// about a third of its draws; the other two almost never.
				n := []int{1431655765, 1431655766, 1<<31 - 1}[pick.Intn(3)]
				if got, want := int(s.uint31n(uint32(n))), firstShuffleDraw(ref, n); got != want {
					t.Fatalf("seed %d step %d: uint31n(%d) = %d, math/rand's Shuffle %d", seed, step, n, got, want)
				}
			}
		}
	}
}

// checkShuffleSlice shuffles x with ShuffleSlice and a copy of it with
// math/rand's Shuffle, and requires the same order.
func checkShuffleSlice[T comparable](t *testing.T, s *Source, ref *rand.Rand, x []T, seed int64, step int) {
	t.Helper()
	want := slices.Clone(x)
	ShuffleSlice(s, x)
	ref.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
	if !slices.Equal(x, want) {
		t.Fatalf("seed %d step %d: ShuffleSlice(%T of %d) differs from math/rand's Shuffle", seed, step, x, len(x))
	}
}

// firstShuffleDraw returns the index r's Shuffle(n, ...) draws first,
// for n < 1<<31, abandoning the shuffle after that one draw.
func firstShuffleDraw(r *rand.Rand, n int) (j int) {
	type stop struct{}
	defer func() {
		if p := recover(); p != (stop{}) {
			panic(p)
		}
	}()
	r.Shuffle(n, func(_, k int) {
		j = k
		panic(stop{})
	})
	return -1
}

func identity[T int | int32 | proc.ID](n int) []T {
	x := make([]T, n)
	for i := range x {
		x[i] = T(i)
	}
	return x
}

// TestChildMatchesMathRand pins the derivations to the generator they
// seed: a Child or ChildLabel stream is math/rand's on the derived seed.
func TestChildMatchesMathRand(t *testing.T) {
	p := newSource(5)
	ref := rand.New(rand.NewSource(5))
	c := p.Child(1, 2)
	h := uint64(ref.Int63())
	h = mix(mix(h^1) ^ 2)
	refChild := rand.New(rand.NewSource(int64(h)))
	for i := 0; i < 50; i++ {
		if got, want := c.Intn(1000), refChild.Intn(1000); got != want {
			t.Fatalf("draw %d: Child Intn = %d, math/rand %d", i, got, want)
		}
	}
	// The parent moved exactly one draw.
	if got, want := p.Int63(), ref.Int63(); got != want {
		t.Fatalf("parent after Child: Int63 = %d, math/rand %d", got, want)
	}
}
