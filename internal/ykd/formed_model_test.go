package ykd

import (
	"fmt"
	"testing"

	"dynvote/internal/proc"
	"dynvote/internal/rng"
	"dynvote/internal/view"
)

// formedModel is the reference lastFormed table: one Session per
// process, indexed by proc.ID, updated a process at a time exactly as
// Figure 3-3 states the rules. It is the shape the table had before it
// was stored as the partition it is sent as, kept here the way
// trace's ring_test.go keeps the shift model.
type formedModel struct {
	self  proc.ID
	table []view.Session
}

func newFormedModel(self proc.ID, initial view.View) *formedModel {
	m := &formedModel{self: self, table: make([]view.Session, int(initial.Members.Max())+1)}
	w := view.NewSession(0, initial)
	initial.Members.ForEach(func(q proc.ID) { m.table[q] = w })
	return m
}

// accept is the ACCEPT rule: a formed session containing this process
// raises lastFormed(q) for each of its members q with an older entry.
func (m *formedModel) accept(s view.Session) {
	if !s.Contains(m.self) {
		return
	}
	s.Members.ForEach(func(q proc.ID) {
		if int(q) < len(m.table) && s.Number > m.table[q].Number {
			m.table[q] = s
		}
	})
}

// form is formation: this process formed s, so lastFormed(q) = s for
// every member q.
func (m *formedModel) form(s view.Session) {
	s.Members.ForEach(func(q proc.ID) {
		if int(q) < len(m.table) {
			m.table[q] = s
		}
	})
}

// form drives the real formation path: the instance is put in the
// attempt phase of a view with s's members, holding an attempt from
// each of them, and checkFormed completes it.
func form(a *Algorithm, s view.Session) {
	a.cur = view.View{ID: s.Number, Members: s.Members}
	a.curSize = s.Members.Count()
	a.attemptSession = s
	a.phase = phaseAttempt
	a.attempts.Reset(int(s.Members.Max()) + 1)
	a.attempts.AddSet(s.Members)
	a.checkFormed()
}

// checkPartition asserts the invariant the group move relies on: Who
// sets non-empty, pairwise disjoint, union = the initial membership.
func checkPartition(t *testing.T, a *Algorithm, step int) {
	t.Helper()
	var covered proc.Set
	for i, g := range a.formed {
		if g.Who.Empty() {
			t.Fatalf("step %d: group %d (S%d) is empty", step, i, g.Session.Number)
		}
		if !g.Who.Disjoint(covered) {
			t.Fatalf("step %d: group %d (S%d, %d processes) overlaps an earlier group", step, i, g.Session.Number, g.Who.Count())
		}
		covered = covered.Union(g.Who)
	}
	if !covered.Equal(a.initial.Members) {
		t.Fatalf("step %d: groups cover %d processes, want the initial %d", step, covered.Count(), a.initial.Members.Count())
	}
}

// TestLastFormedMatchesPerProcessModel drives the partition-form table
// and the per-process reference with the same random ACCEPT and
// formation sequences — including repeats (the appliedFormed memo),
// stale reports, sessions without self and members beyond the universe
// — and requires FormedFor(q), as a peer would read it off the state
// message, to agree for every q after every step.
func TestLastFormedMatchesPerProcessModel(t *testing.T) {
	for _, n := range []int{5, 64, 257, 1024} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) {
				r := rng.New(seed)
				initial := view.View{ID: 0, Members: proc.Universe(n)}
				self := proc.ID(r.Intn(n))
				a := New(VariantYKD, self, initial)
				m := newFormedModel(self, initial)

				// A process takes part in at most one session per number,
				// so a number names one member set for the whole sequence.
				known := map[int64]view.Session{}
				var numbers []int64
				top := int64(0)
				// ids bounds the member IDs drawn: n keeps a session inside
				// the universe (a view), n+2 lets a report name strangers.
				randomSession := func(number int64, withSelf bool, ids int) view.Session {
					var members proc.Set
					for k := 1 + r.Intn(n); k > 0; k-- {
						members.Add(proc.ID(r.Intn(ids)))
					}
					if withSelf {
						members.Add(self)
					} else {
						members.Remove(self)
					}
					s := view.Session{Number: number, Members: members}
					known[number] = s
					numbers = append(numbers, number)
					return s
				}

				steps := 400
				if n > proc.InlineProcs {
					steps = 120
				}
				for step := 0; step < steps; step++ {
					switch op := r.Intn(10); {
					case op < 2: // formation: the number exceeds every known one
						top += 1 + int64(r.Intn(3))
						s := randomSession(top, true, n)
						form(a, s)
						m.form(s)
					case op < 6 && len(numbers) > 0: // ACCEPT of a session reported before
						s := known[numbers[r.Intn(len(numbers))]]
						a.acceptFormed(&s)
						m.accept(s)
					default: // ACCEPT of a new report, possibly older than the table
						number := 1 + int64(r.Intn(int(top)+3))
						if _, dup := known[number]; dup {
							continue
						}
						top = max(top, number)
						s := randomSession(number, r.Intn(8) != 0, n+2)
						a.acceptFormed(&s)
						m.accept(s)
					}
					checkPartition(t, a, step)
					st := a.snapshotState(0)
					for q := proc.ID(0); int(q) < n+2; q++ {
						got, ok := st.FormedFor(q)
						if ok != (int(q) < n) {
							t.Fatalf("step %d: FormedFor(%v) known = %v", step, q, ok)
						}
						if ok && !got.Equal(m.table[q]) {
							t.Fatalf("step %d: FormedFor(%v) = S%d, model has S%d", step, q, got.Number, m.table[q].Number)
						}
					}
				}
				if len(a.formed) < 2 {
					t.Fatalf("sequence never split the table (%d group)", len(a.formed))
				}
			})
		}
	}
}
