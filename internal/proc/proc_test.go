package proc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSetBasics(t *testing.T) {
	s := NewSet(0, 3, 5)
	if got := s.Count(); got != 3 {
		t.Fatalf("Count() = %d, want 3", got)
	}
	for _, id := range []ID{0, 3, 5} {
		if !s.Contains(id) {
			t.Errorf("Contains(%v) = false, want true", id)
		}
	}
	for _, id := range []ID{1, 2, 4, 6, 100} {
		if s.Contains(id) {
			t.Errorf("Contains(%v) = true, want false", id)
		}
	}
	if s.Contains(-1) {
		t.Error("Contains(-1) = true, want false")
	}
}

func TestUniverse(t *testing.T) {
	tests := []struct {
		n    int
		want int
	}{
		{0, 0}, {1, 1}, {5, 5}, {63, 63}, {64, 64}, {65, 65}, {128, 128}, {130, 130},
	}
	for _, tt := range tests {
		u := Universe(tt.n)
		if got := u.Count(); got != tt.want {
			t.Errorf("Universe(%d).Count() = %d, want %d", tt.n, got, tt.want)
		}
		if tt.n > 0 && !u.Contains(ID(tt.n-1)) {
			t.Errorf("Universe(%d) missing last member", tt.n)
		}
		if u.Contains(ID(tt.n)) {
			t.Errorf("Universe(%d) contains %d", tt.n, tt.n)
		}
	}
	if !Universe(-3).Empty() {
		t.Error("Universe(-3) not empty")
	}
}

func TestWithWithout(t *testing.T) {
	s := NewSet(1, 2)
	s2 := s.With(7)
	if s.Contains(7) {
		t.Error("With mutated the receiver")
	}
	if !s2.Contains(7) || s2.Count() != 3 {
		t.Errorf("With(7) wrong: %v", s2)
	}
	s3 := s2.Without(2)
	if s2.Count() != 3 {
		t.Error("Without mutated the receiver")
	}
	if s3.Contains(2) || s3.Count() != 2 {
		t.Errorf("Without(2) wrong: %v", s3)
	}
	if got := s3.Without(99); !got.Equal(s3) {
		t.Errorf("Without(absent) changed the set: %v", got)
	}
}

func TestSetAlgebra(t *testing.T) {
	a := NewSet(0, 1, 2, 64, 65)
	b := NewSet(2, 3, 65, 130)

	if got := a.Union(b); got.Count() != 7 || !NewSet(0, 1, 2, 3, 64, 65, 130).Equal(got) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(NewSet(2, 65)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Diff(b); !got.Equal(NewSet(0, 1, 64)) {
		t.Errorf("Diff = %v", got)
	}
	if got := a.IntersectCount(b); got != 2 {
		t.Errorf("IntersectCount = %d, want 2", got)
	}
	if a.Disjoint(b) {
		t.Error("Disjoint = true, want false")
	}
	if !a.Disjoint(NewSet(9, 10)) {
		t.Error("Disjoint = false, want true")
	}
}

func TestEqualAcrossWordLengths(t *testing.T) {
	a := NewSet(1, 2)
	b := NewSet(1, 2, 200).Without(200) // longer backing array, same membership
	if !a.Equal(b) || !b.Equal(a) {
		t.Errorf("Equal across word lengths failed: %v vs %v", a, b)
	}
	if a.Key() != b.Key() {
		t.Errorf("Key mismatch for equal sets")
	}
}

func TestSubsetOf(t *testing.T) {
	a := NewSet(1, 2)
	b := NewSet(1, 2, 3)
	if !a.SubsetOf(b) {
		t.Error("a ⊆ b expected")
	}
	if b.SubsetOf(a) {
		t.Error("b ⊆ a unexpected")
	}
	if !(Set{}).SubsetOf(a) {
		t.Error("∅ ⊆ a expected")
	}
	if !a.SubsetOf(a) {
		t.Error("a ⊆ a expected")
	}
}

func TestSmallest(t *testing.T) {
	if got := (Set{}).Smallest(); got != None {
		t.Errorf("empty Smallest = %v, want None", got)
	}
	if got := NewSet(5, 3, 70).Smallest(); got != 3 {
		t.Errorf("Smallest = %v, want p3", got)
	}
	if got := NewSet(70, 100).Smallest(); got != 70 {
		t.Errorf("Smallest = %v, want p70", got)
	}
}

func TestMembersAndForEach(t *testing.T) {
	s := NewSet(9, 0, 64, 3)
	want := []ID{0, 3, 9, 64}
	got := s.Members()
	if len(got) != len(want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
	var walked []ID
	s.ForEach(func(id ID) { walked = append(walked, id) })
	for i := range want {
		if walked[i] != want[i] {
			t.Fatalf("ForEach order = %v, want %v", walked, want)
		}
	}
}

func TestNth(t *testing.T) {
	s := NewSet(2, 5, 64, 100)
	wants := []ID{2, 5, 64, 100}
	for i, want := range wants {
		if got := s.Nth(i); got != want {
			t.Errorf("Nth(%d) = %v, want %v", i, got, want)
		}
	}
	if got := s.Nth(4); got != None {
		t.Errorf("Nth(4) = %v, want None", got)
	}
	if got := s.Nth(-1); got != None {
		t.Errorf("Nth(-1) = %v, want None", got)
	}
}

func TestWordsRoundTrip(t *testing.T) {
	s := NewSet(0, 63, 64, 127, 129)
	got := SetFromWords(s.Words())
	if !got.Equal(s) {
		t.Errorf("round trip = %v, want %v", got, s)
	}
	// Mutating the returned words must not affect the set.
	w := s.Words()
	w[0] = 0
	if !s.Contains(0) {
		t.Error("Words() aliases internal storage")
	}
}

func TestString(t *testing.T) {
	if got := NewSet(1, 3).String(); got != "{p1,p3}" {
		t.Errorf("String = %q", got)
	}
	if got := (Set{}).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func randomSet(r *rand.Rand, maxID int) Set {
	var s Set
	for i := 0; i < maxID; i++ {
		if r.Intn(2) == 0 {
			s = s.With(ID(i))
		}
	}
	return s
}

// Property: standard set-algebra laws hold on random sets.
func TestSetAlgebraProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b := randomSet(rr, 130), randomSet(rr, 130)
		u, i := a.Union(b), a.Intersect(b)
		// |A∪B| + |A∩B| = |A| + |B|
		if u.Count()+i.Count() != a.Count()+b.Count() {
			return false
		}
		// A\B ∪ A∩B = A
		if !a.Diff(b).Union(i).Equal(a) {
			return false
		}
		// A∩B ⊆ A ⊆ A∪B
		if !i.SubsetOf(a) || !a.SubsetOf(u) {
			return false
		}
		// De Morgan on a finite universe.
		univ := Universe(130)
		if !univ.Diff(u).Equal(univ.Diff(a).Intersect(univ.Diff(b))) {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Members / NewSet round-trips, and Smallest is min(Members).
func TestMembersRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		s := randomSet(rr, 200)
		rt := NewSet(s.Members()...)
		if !rt.Equal(s) {
			return false
		}
		m := s.Members()
		if len(m) == 0 {
			return s.Smallest() == None
		}
		return s.Smallest() == m[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIntersectCount64(b *testing.B) {
	x := Universe(64)
	y := NewSet(0, 5, 9, 33, 63)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.IntersectCount(y)
	}
}

// The 256-process benchmarks pin the multi-word inline path at the
// scaling sweep's largest system size: word-parallel loops over the
// full inline array, still zero heap traffic.

func BenchmarkIntersectCount256(b *testing.B) {
	x := Universe(256)
	y := NewSet(0, 5, 9, 33, 63, 64, 127, 128, 200, 255)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.IntersectCount(y)
	}
}

var benchSink int

func BenchmarkForEach256(b *testing.B) {
	s := Universe(256)
	n := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ForEach(func(id ID) { n += int(id) })
	}
	benchSink = n
}

var benchSinkSet Set

func BenchmarkUnion256(b *testing.B) {
	x := Universe(128)
	y := Universe(256).Diff(Universe(100))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSinkSet = x.Union(y)
	}
}

// The 1024-process benchmarks pin the overflow-word paths at the
// kilo-process sweep size: one variable-length word loop each, with
// IntersectCount/ForEach allocation-free and Bits absorbing the
// mutation traffic that Set's copy-on-write overflow would multiply.

func BenchmarkIntersectCount1024(b *testing.B) {
	x := Universe(1024)
	y := NewSet(0, 5, 63, 64, 255, 256, 511, 512, 700, 1023)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.IntersectCount(y)
	}
}

func BenchmarkForEach1024(b *testing.B) {
	s := Universe(1024)
	n := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ForEach(func(id ID) { n += int(id) })
	}
	benchSink = n
}

func BenchmarkUnion1024(b *testing.B) {
	x := Universe(512)
	y := Universe(1024).Diff(Universe(400))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSinkSet = x.Union(y)
	}
}

func BenchmarkBitsAccumulate1024(b *testing.B) {
	var acc Bits
	n := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc.Reset(1024)
		for id := ID(0); id < 1024; id++ {
			acc.Add(id)
		}
		n += acc.Count()
	}
	benchSink = n
}

// BenchmarkSetEqual prices Equal on two equal kilo-process sets: ones
// that share their overflow words (the pointer fast path) and ones with
// the same words in distinct storage (the full word compare).
func BenchmarkSetEqual(b *testing.B) {
	s := Universe(1024).Without(700)
	for _, c := range []struct {
		name string
		t    Set
	}{{"shared", s}, {"distinct", SetFromWords(s.Words())}} {
		b.Run("procs=1024/"+c.name, func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				if s.Equal(c.t) {
					n++
				}
			}
			benchSink = n
		})
	}
}

// TestSmallSetOpsAllocationFree pins the inline fast path: every set
// operation on sets of ≤64 processes must stay off the heap. This is
// the perf contract the simulator's hot loop depends on.
func TestSmallSetOpsAllocationFree(t *testing.T) {
	a := NewSet(0, 3, 17, 42, 63)
	b := NewSet(3, 5, 42, 60)
	var sink Set
	var n int
	allocs := testing.AllocsPerRun(100, func() {
		sink = a.With(7).Without(3).Union(b).Intersect(a).Diff(b)
		n += sink.Count()
		if a.Contains(5) || !a.SubsetOf(a) {
			t.Fatal("wrong set algebra")
		}
		a.ForEach(func(id ID) { n += int(id) })
	})
	if allocs != 0 {
		t.Errorf("small-set ops allocated %.1f times per run, want 0", allocs)
	}
	_ = sink
}
