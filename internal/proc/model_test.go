package proc

import (
	"math/rand"
	"sort"
	"testing"
)

// This file checks the multi-word Set against a map-based reference
// model at the word-boundary sizes where the inline representation
// changes shape: 63/64/65 (one word vs two) and 255/256/257 (the last
// inline ID vs the overflow slice). Every exported query is compared
// after every mutation, so a bit dropped by a word-parallel fast path
// or a stale mirror between the inline array and the overflow slice
// shows up as a model divergence, not a downstream simulation bug.

// setModel is the reference: membership as a plain map.
type setModel map[ID]bool

func (m setModel) members() []ID {
	out := make([]ID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkAgainstModel compares every observable of s with the model.
func checkAgainstModel(t *testing.T, s Set, m setModel, maxID int) {
	t.Helper()
	want := m.members()
	if got := s.Count(); got != len(want) {
		t.Fatalf("Count = %d, model has %d members", got, len(want))
	}
	got := s.Members()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, model = %v", got, want)
		}
	}
	wantSmallest, wantMax := None, None
	if len(want) > 0 {
		wantSmallest, wantMax = want[0], want[len(want)-1]
	}
	if s.Smallest() != wantSmallest || s.Max() != wantMax {
		t.Fatalf("Smallest/Max = %v/%v, model = %v/%v",
			s.Smallest(), s.Max(), wantSmallest, wantMax)
	}
	// Probe membership a little beyond the domain to catch phantom bits.
	for id := ID(0); id <= ID(maxID)+2; id++ {
		if s.Contains(id) != m[id] {
			t.Fatalf("Contains(%v) = %v, model = %v", id, s.Contains(id), m[id])
		}
	}
	for i, id := range want {
		if s.Nth(i) != id {
			t.Fatalf("Nth(%d) = %v, model = %v", i, s.Nth(i), id)
		}
	}
	if rt := SetFromWords(s.Words()); !rt.Equal(s) {
		t.Fatalf("Words round trip diverged: %v vs %v", rt, s)
	}
	if rt := NewSet(s.Members()...); !rt.Equal(s) || rt.Key() != s.Key() {
		t.Fatalf("Members round trip diverged: %v vs %v", rt, s)
	}
	walked := 0
	s.EachWhile(func(id ID) bool {
		if id != want[walked] {
			t.Fatalf("EachWhile visited %v at %d, model = %v", id, walked, want[walked])
		}
		walked++
		return true
	})
	if walked != len(want) {
		t.Fatalf("EachWhile visited %d members, model has %d", walked, len(want))
	}
	if len(want) > 1 {
		stopped := 0
		s.EachWhile(func(ID) bool { stopped++; return stopped < 2 })
		if stopped != 2 {
			t.Fatalf("EachWhile early exit walked %d members, want 2", stopped)
		}
	}
	var bs Bits
	bs.Load(s)
	if bs.Count() != len(want) || !bs.ContainsSet(s) || !bs.Freeze().Equal(s) {
		t.Fatalf("Bits.Load round trip diverged for %v", s)
	}
}

// boundarySizes are the domains under test: one ID below, at, and
// above each representation boundary — the inline word boundaries
// 63/64/65 and 255/256/257, and the kilo-process overflow boundaries
// 511/512/513 and 1023/1024/1025 where every operation runs on the
// variable-length word loops.
var boundarySizes = []int{63, 64, 65, 255, 256, 257, 511, 512, 513, 1023, 1024, 1025}

func TestSetModelMutations(t *testing.T) {
	for _, maxID := range boundarySizes {
		maxID := maxID
		t.Run(ID(maxID).String(), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(maxID)))
			var s Set
			m := setModel{}
			for step := 0; step < 400; step++ {
				id := ID(r.Intn(maxID + 1))
				switch r.Intn(4) {
				case 0:
					s = s.With(id)
					m[id] = true
				case 1:
					s = s.Without(id)
					delete(m, id)
				case 2:
					s.Add(id)
					m[id] = true
				case 3:
					s.Remove(id)
					delete(m, id)
				}
				checkAgainstModel(t, s, m, maxID)
			}
		})
	}
}

// TestSetModelAlgebra drives Union/Intersect/Diff/IntersectCount/
// SubsetOf against the model on random pairs in each boundary domain.
func TestSetModelAlgebra(t *testing.T) {
	for _, maxID := range boundarySizes {
		maxID := maxID
		t.Run(ID(maxID).String(), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(100 + maxID)))
			for round := 0; round < 60; round++ {
				ma, mb := setModel{}, setModel{}
				var a, b Set
				for i := 0; i < r.Intn(maxID+1); i++ {
					id := ID(r.Intn(maxID + 1))
					a.Add(id)
					ma[id] = true
				}
				for i := 0; i < r.Intn(maxID+1); i++ {
					id := ID(r.Intn(maxID + 1))
					b.Add(id)
					mb[id] = true
				}
				mu, mi, md := setModel{}, setModel{}, setModel{}
				subset := true
				for id := range ma {
					mu[id] = true
					if mb[id] {
						mi[id] = true
					} else {
						md[id] = true
						subset = false
					}
				}
				for id := range mb {
					mu[id] = true
				}
				checkAgainstModel(t, a.Union(b), mu, maxID)
				checkAgainstModel(t, a.Intersect(b), mi, maxID)
				checkAgainstModel(t, a.Diff(b), md, maxID)
				if got := a.IntersectCount(b); got != len(mi) {
					t.Fatalf("IntersectCount = %d, model = %d", got, len(mi))
				}
				if got := a.SubsetOf(b); got != subset {
					t.Fatalf("SubsetOf = %v, model = %v", got, subset)
				}
				if got := a.Disjoint(b); got != (len(mi) == 0) {
					t.Fatalf("Disjoint = %v, model = %v", got, len(mi) == 0)
				}
			}
		})
	}
}

// TestSetModelEqual checks Equal against the model, in both directions,
// on the three shapes its fast path and word loop tell apart: sets
// sharing their overflow words, equal words in distinct storage, and
// sets whose first word matches while their word lists differ in
// length.
func TestSetModelEqual(t *testing.T) {
	for _, maxID := range boundarySizes {
		maxID := maxID
		t.Run(ID(maxID).String(), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(200 + maxID)))
			check := func(a, b Set, ma, mb setModel) {
				t.Helper()
				want := len(ma) == len(mb)
				for id := range ma {
					want = want && mb[id]
				}
				if a.Equal(b) != want || b.Equal(a) != want {
					t.Fatalf("Equal(%v, %v) = %v/%v, model = %v", a, b, a.Equal(b), b.Equal(a), want)
				}
				if want && a.Key() != b.Key() {
					t.Fatalf("equal sets %v and %v have different keys", a, b)
				}
			}
			for round := 0; round < 40; round++ {
				var s Set
				m := setModel{}
				for i := r.Intn(maxID + 1); i >= 0; i-- {
					id := ID(r.Intn(maxID + 1))
					s.Add(id)
					m[id] = true
				}
				s.Add(ID(maxID)) // the widest word list the domain has
				m[ID(maxID)] = true

				// Shared backing: a copy, and a union that adds nothing.
				for _, shared := range []Set{s, s.Union(NewSet(s.Smallest()))} {
					if len(s.rest) != 0 && &shared.rest[0] != &s.rest[0] {
						t.Fatal("expected the copy to share the overflow words")
					}
					check(s, shared, m, m)
				}

				// Distinct backing: equal words, then one member fewer.
				distinct := SetFromWords(s.Words())
				if len(s.rest) != 0 && &distinct.rest[0] == &s.rest[0] {
					t.Fatal("SetFromWords shared the overflow words")
				}
				check(s, distinct, m, m)
				drop := s.Nth(r.Intn(s.Count()))
				fewer := setModel{}
				for id := range m {
					if id != drop {
						fewer[id] = true
					}
				}
				check(s, distinct.Without(drop), m, fewer)

				// The same first word, word lists of different lengths.
				low, ml := Set{}, setModel{}
				for i := r.Intn(min(maxID, 63) + 1); i > 0; i-- {
					id := ID(r.Intn(min(maxID, 63)))
					low.Add(id)
					ml[id] = true
				}
				sets, models := []Set{low}, []setModel{ml}
				for _, top := range []ID{ID(maxID), ID(maxID - 64), 64} {
					if top < 63 || int(top) > maxID {
						continue
					}
					mt := setModel{top: true}
					for id := range ml {
						mt[id] = true
					}
					sets, models = append(sets, low.With(top)), append(models, mt)
				}
				for i := range sets {
					for j := range sets {
						check(sets[i], sets[j], models[i], models[j])
					}
				}
			}
		})
	}
}

// FuzzSetModel feeds arbitrary byte strings as mutation scripts: each
// byte pair is (op, id). The fuzzer explores interleavings the random
// tests cannot, especially around the 255/256 inline boundary where id
// bytes saturate.
func FuzzSetModel(f *testing.F) {
	f.Add([]byte{0, 63, 0, 64, 0, 65, 1, 64})
	f.Add([]byte{0, 255, 2, 0, 3, 255})
	f.Add([]byte{2, 254, 2, 255, 3, 254, 1, 255, 0, 7})
	f.Fuzz(func(t *testing.T, script []byte) {
		var s Set
		m := setModel{}
		for i := 0; i+1 < len(script); i += 2 {
			op, id := script[i]%4, ID(script[i+1])
			switch op {
			case 0:
				s = s.With(id)
				m[id] = true
			case 1:
				s = s.Without(id)
				delete(m, id)
			case 2:
				s.Add(id)
				m[id] = true
			case 3:
				s.Remove(id)
				delete(m, id)
			}
		}
		checkAgainstModel(t, s, m, 257)
	})
}

// FuzzSetModelWide is FuzzSetModel's kilo-process counterpart: each
// byte triple is (op, idHi, idLo) with the 16-bit id reduced into the
// 0..1025 domain, so scripts cross the 512- and 1024-process word
// boundaries that single-byte ids can never reach.
func FuzzSetModelWide(f *testing.F) {
	f.Add([]byte{0, 1, 255, 0, 2, 0, 0, 2, 1, 1, 2, 0})   // 511, 512, 513, del 512
	f.Add([]byte{2, 3, 255, 2, 4, 0, 3, 3, 255, 0, 4, 1}) // 1023, 1024, del 1023, 1025
	f.Add([]byte{0, 0, 255, 2, 4, 1, 1, 4, 1, 0, 0, 0})   // 255, 1025, del 1025, 0
	f.Fuzz(func(t *testing.T, script []byte) {
		var s Set
		m := setModel{}
		for i := 0; i+2 < len(script); i += 3 {
			op := script[i] % 4
			id := ID(int(script[i+1])<<8|int(script[i+2])) % 1026
			switch op {
			case 0:
				s = s.With(id)
				m[id] = true
			case 1:
				s = s.Without(id)
				delete(m, id)
			case 2:
				s.Add(id)
				m[id] = true
			case 3:
				s.Remove(id)
				delete(m, id)
			}
		}
		checkAgainstModel(t, s, m, 1025)
	})
}
