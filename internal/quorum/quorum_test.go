package quorum

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dynvote/internal/proc"
)

func TestSubQuorum(t *testing.T) {
	y := proc.NewSet(0, 1, 2, 3, 4)
	tests := []struct {
		name string
		x    proc.Set
		want bool
	}{
		{"strict majority 3/5", proc.NewSet(0, 1, 2), true},
		{"strict majority with outsiders", proc.NewSet(2, 3, 4, 9), true},
		{"minority 2/5", proc.NewSet(0, 1), false},
		{"empty x", proc.NewSet(), false},
		{"all of y", y, true},
		{"disjoint", proc.NewSet(7, 8, 9), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SubQuorum(tt.x, y); got != tt.want {
				t.Errorf("SubQuorum(%v, %v) = %v, want %v", tt.x, y, got, tt.want)
			}
		})
	}
}

func TestSubQuorumHalfTieBreak(t *testing.T) {
	y := proc.NewSet(0, 1, 2, 3) // smallest is p0
	withSmallest := proc.NewSet(0, 3)
	withoutSmallest := proc.NewSet(1, 2)
	if !SubQuorum(withSmallest, y) {
		t.Error("half containing the smallest process must be a subquorum")
	}
	if SubQuorum(withoutSmallest, y) {
		t.Error("half lacking the smallest process must not be a subquorum")
	}
}

func TestSubQuorumEmptyY(t *testing.T) {
	if SubQuorum(proc.NewSet(0), proc.Set{}) {
		t.Error("no set is a subquorum of the empty set")
	}
}

func TestMajority(t *testing.T) {
	y := proc.NewSet(0, 1, 2, 3)
	if Majority(proc.NewSet(0, 1), y) {
		t.Error("exactly half is not a majority")
	}
	if !Majority(proc.NewSet(0, 1, 2), y) {
		t.Error("3/4 is a majority")
	}
	if Majority(proc.NewSet(0), proc.Set{}) {
		t.Error("nothing is a majority of the empty set")
	}
}

func TestMajorityCount(t *testing.T) {
	tests := []struct {
		have, total int
		want        bool
	}{
		{0, 0, false}, {1, 1, true}, {1, 2, false}, {2, 3, true}, {2, 4, false}, {3, 4, true},
	}
	for _, tt := range tests {
		if got := MajorityCount(tt.have, tt.total); got != tt.want {
			t.Errorf("MajorityCount(%d, %d) = %v, want %v", tt.have, tt.total, got, tt.want)
		}
	}
}

// The safety-critical property of dynamic linear voting: two disjoint
// groups can never both be subquorums of the same previous group. This
// is exactly what prevents two concurrent primary components.
func TestDisjointSubQuorumsImpossible(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(64)
		y := randomNonEmpty(r, n)
		// Random partition of the universe into two disjoint halves.
		var a, b proc.Set
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				a = a.With(proc.ID(i))
			} else {
				b = b.With(proc.ID(i))
			}
		}
		return !(SubQuorum(a, y) && SubQuorum(b, y))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// A strict majority is always a subquorum; a subquorum always holds at
// least half.
func TestSubQuorumMajorityRelation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(64)
		x, y := randomNonEmpty(r, n), randomNonEmpty(r, n)
		if Majority(x, y) && !SubQuorum(x, y) {
			return false
		}
		if SubQuorum(x, y) && 2*x.IntersectCount(y) < y.Count() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestAgainstBruteForce cross-checks the fused word loop — the one path
// every width takes — against a member-by-member count on random pairs
// at the thesis width, both sides of the inline/overflow boundary of
// proc.Set and the kilo-process width, including mismatched widths
// where x is much narrower than y.
func TestAgainstBruteForce(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 255, 256, 257, 511, 512, 513, 1023, 1024, 1025} {
		r := rand.New(rand.NewSource(int64(n)))
		for round := 0; round < 200; round++ {
			y := randomNonEmpty(r, n)
			x := randomNonEmpty(r, 1+r.Intn(n))
			total, common, smallest := 0, 0, proc.None
			for q := proc.ID(0); int(q) < n; q++ {
				if !y.Contains(q) {
					continue
				}
				if smallest == proc.None {
					smallest = q
				}
				total++
				if x.Contains(q) {
					common++
				}
			}
			wantSub := 2*common > total || (2*common == total && x.Contains(smallest))
			wantMaj := 2*common > total
			if got := SubQuorum(x, y); got != wantSub {
				t.Fatalf("n=%d round=%d: SubQuorum = %v, brute force = %v", n, round, got, wantSub)
			}
			if got := Majority(x, y); got != wantMaj {
				t.Fatalf("n=%d round=%d: Majority = %v, brute force = %v", n, round, got, wantMaj)
			}
		}
	}
}

// TestWideTieBreak pins the exact-half tie-breaker on overflow sets:
// x holding exactly half of y wins iff it holds y's smallest member —
// including when that member sits past the inline words.
func TestWideTieBreak(t *testing.T) {
	// y = {300..555}: 256 members, entirely in overflow words.
	y := proc.Universe(556).Diff(proc.Universe(300))
	lowHalf := proc.Universe(428).Diff(proc.Universe(300))  // 128 members incl. smallest (300)
	highHalf := proc.Universe(556).Diff(proc.Universe(428)) // 128 members, no smallest
	if !SubQuorum(lowHalf, y) {
		t.Error("half including smallest overflow member must be a subquorum")
	}
	if SubQuorum(highHalf, y) {
		t.Error("half excluding smallest overflow member must not be a subquorum")
	}
	if Majority(lowHalf, y) || Majority(highHalf, y) {
		t.Error("exactly half is never a majority")
	}
	if SubQuorum(proc.Set{}, proc.Universe(1024).Diff(proc.Universe(1023))) {
		t.Error("empty x cannot be a subquorum of a nonempty wide y")
	}
	if SubQuorum(proc.Universe(1024), proc.Set{}) {
		t.Error("empty y has no subquorums at any width")
	}
}

// TestWideQuorumAllocFree pins the allocation contract at 1024
// processes.
func TestWideQuorumAllocFree(t *testing.T) {
	y := proc.Universe(1024)
	x := proc.Universe(700)
	allocs := testing.AllocsPerRun(100, func() {
		if !SubQuorum(x, y) || !Majority(x, y) {
			t.Fatal("700 of 1024 must be both subquorum and majority")
		}
	})
	if allocs != 0 {
		t.Errorf("wide quorum evaluation allocated %.1f times per run, want 0", allocs)
	}
}

func randomNonEmpty(r *rand.Rand, n int) proc.Set {
	var s proc.Set
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			s = s.With(proc.ID(i))
		}
	}
	if s.Empty() {
		s = s.With(proc.ID(r.Intn(n)))
	}
	return s
}
