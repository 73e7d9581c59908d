package ykd

import (
	"fmt"
	"testing"

	"dynvote/internal/proc"
	"dynvote/internal/rng"
	"dynvote/internal/view"
)

// exchange is one view's state round as a receiver sees it: the view,
// the receiver's durable state before it, and the state each other
// member of the view sends in it.
type exchange struct {
	variant Variant
	initial view.View
	v       view.View
	out     proc.Set // the universe minus v
	self    proc.ID
	snap    []byte    // the receiver's Snapshot
	states  []arrival // every other member's state for v, ascending by sender
}

// newExchange builds instances with differing histories — formations
// learned by some members, ambiguous sessions, and two last primaries
// that tie on Number with different members — and collects the states
// they send in v. Every number but the tied one names one member set,
// as it does in a run (a process takes part in at most one session per
// number); the tied sessions leave out the receiver, so only the
// maxPrimary pick reads them. One of them makes v a subquorum and the
// other does not, so the pick decides whether the receiver attempts.
func newExchange(t *testing.T, variant Variant, n int, seed int64) *exchange {
	t.Helper()
	r := rng.New(seed)
	initial := view.View{ID: 0, Members: proc.Universe(n)}
	var out proc.Set
	for out.Count() < max(2, n/3) {
		out.Add(proc.ID(r.Intn(n)))
	}
	v := view.View{ID: 100, Members: proc.Universe(n).Diff(out)}
	ids := v.Members.Members()
	self := ids[r.Intn(len(ids))]

	algs := map[proc.ID]*Algorithm{}
	alg := func(q proc.ID) *Algorithm {
		if algs[q] == nil {
			algs[q] = New(variant, q, initial)
		}
		return algs[q]
	}
	pick := func() proc.ID { return ids[r.Intn(len(ids))] }
	// inside draws k members of v, so a session of them (plus at most
	// one outsider) has a majority in v.
	inside := func(k int) proc.Set {
		var s proc.Set
		for s.Count() < min(k, len(ids)) {
			s.Add(pick())
		}
		return s
	}

	number := int64(0)
	for i := 0; i < 6; i++ {
		number += 1 + int64(r.Intn(2))
		former := pick()
		var members proc.Set
		for k := 1 + r.Intn(n); k > 0; k-- {
			members.Add(proc.ID(r.Intn(n)))
		}
		s := view.Session{Number: number, Members: members.With(former)}
		form(alg(former), s)
		for j := 0; j < 4; j++ {
			alg(pick()).acceptFormed(&s)
		}
		alg(self).acceptFormed(&s)
	}

	number++
	var s1, s2 proc.ID
	for s1 == s2 || s1 == self || s2 == self {
		s1, s2 = pick(), pick()
	}
	s1, s2 = min(s1, s2), max(s1, s2)
	sub, notSub := s1, s2
	if seed%2 == 0 {
		sub, notSub = s2, s1
	}
	form(alg(sub), view.Session{Number: number, Members: proc.NewSet(sub)})
	form(alg(notSub), view.Session{Number: number, Members: out.With(notSub)})

	holders := append([]proc.ID{self}, ids[:min(len(ids), 6)]...)
	for _, q := range holders {
		a := alg(q)
		for k := 1 + r.Intn(2); k > 0; k-- {
			number++
			members := inside(2 + r.Intn(len(ids))).With(q)
			if r.Intn(4) == 0 {
				members.Add(out.Nth(r.Intn(out.Count())))
			}
			a.ambiguous = append(a.ambiguous, view.Session{Number: number, Members: members})
		}
	}
	for _, a := range algs {
		a.sessionNumber = max(a.sessionNumber, a.lastPrimary.Number)
		for _, s := range a.ambiguous {
			a.sessionNumber = max(a.sessionNumber, s.Number)
		}
	}

	snap, err := alg(self).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(variant, 0, initial).snapshotState(v.ID)
	x := &exchange{variant: variant, initial: initial, v: v, out: out, self: self, snap: snap}
	for _, q := range ids {
		if q == self {
			continue
		}
		st := fresh
		if a := algs[q]; a != nil {
			st = a.snapshotState(v.ID)
		}
		x.states = append(x.states, arrival{from: q, st: st})
	}
	return x
}

// receiver returns a fresh instance holding the receiver's history,
// with v installed and its own state already accepted.
func (x *exchange) receiver(t *testing.T) *Algorithm {
	t.Helper()
	a := New(x.variant, x.self, x.initial)
	if err := a.Restore(x.snap); err != nil {
		t.Fatal(err)
	}
	a.ViewChange(x.v)
	return a
}

// outcome is everything a resolved exchange leaves behind.
type outcome struct {
	lastPrimary   view.Session
	formed        []view.Session // FormedFor(q), q over the universe
	ambiguous     []view.Session
	sessionNumber int64
	sent          []string // Poll's messages, encoded
	attempts      int
}

func outcomeOf(t *testing.T, a *Algorithm, n int) outcome {
	t.Helper()
	o := outcome{
		lastPrimary:   a.lastPrimary,
		ambiguous:     append([]view.Session(nil), a.ambiguous...),
		sessionNumber: a.sessionNumber,
	}
	st := a.snapshotState(0)
	for q := proc.ID(0); int(q) < n; q++ {
		s, _ := st.FormedFor(q)
		o.formed = append(o.formed, s)
	}
	for _, m := range a.Poll() {
		b, err := (Codec{}).Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		o.sent = append(o.sent, string(b))
		if _, ok := m.(*AttemptMessage); ok {
			o.attempts++
		}
	}
	return o
}

// diff names the first field where o and p differ, or returns "".
func (o outcome) diff(p outcome) string {
	equal := func(a, b []view.Session) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				return false
			}
		}
		return true
	}
	switch {
	case !o.lastPrimary.Equal(p.lastPrimary):
		return fmt.Sprintf("lastPrimary S%d, want S%d", o.lastPrimary.Number, p.lastPrimary.Number)
	case !equal(o.formed, p.formed):
		return "lastFormed table"
	case !equal(o.ambiguous, p.ambiguous):
		return fmt.Sprintf("%d ambiguous sessions, want %d", len(o.ambiguous), len(p.ambiguous))
	case o.sessionNumber != p.sessionNumber:
		return fmt.Sprintf("sessionNumber %d, want %d", o.sessionNumber, p.sessionNumber)
	case len(o.sent) != len(p.sent):
		return fmt.Sprintf("Poll sent %d messages, want %d", len(o.sent), len(p.sent))
	}
	for i := range o.sent {
		if o.sent[i] != p.sent[i] {
			return fmt.Sprintf("Poll message %d differs", i)
		}
	}
	return ""
}

// TestStateExchangeOrderIndependent delivers one view's states in
// seeded permutations and requires the outcome of the ascending-sender
// order every time: members see the states in different orders and
// must still decide alike. Mixed into each permutation are states the
// receiver must drop — a duplicate, one from a non-member, one from an
// ID past the universe, one tagged with a stale view — each carrying a
// last primary that would change the outcome if accepted, and after
// resolution an attempt from a non-member and one from past the
// universe. Resolution must run exactly once: not before the last
// member's state, and not again on a duplicate after it.
func TestStateExchangeOrderIndependent(t *testing.T) {
	const perms = 20
	const far = proc.ID(5000)
	for _, n := range []int{5, 64, 65, 257, 1024} {
		for _, variant := range []Variant{VariantYKD, VariantUnoptimized, VariantDFLS, VariantOnePending} {
			t.Run(fmt.Sprintf("n=%d/%v", n, variant), func(t *testing.T) {
				seed := int64(n) + int64(variant)
				x := newExchange(t, variant, n, seed)
				ref := x.receiver(t)
				for _, s := range x.states {
					ref.Deliver(s.from, s.st)
				}
				if ref.phase == phaseExchange {
					t.Fatal("ascending delivery did not resolve")
				}
				want := outcomeOf(t, ref, n)
				if want.attempts > 1 {
					t.Fatalf("reference sent %d attempts", want.attempts)
				}

				poison := &StateMessage{
					ViewID:        x.v.ID,
					SessionNumber: 1 << 40,
					LastPrimary:   view.Session{Number: 1 << 40, Members: x.initial.Members},
				}
				stale := *poison
				stale.ViewID = x.v.ID - 1
				r := rng.New(seed)
				decided := 0
				for p := 0; p < perms; p++ {
					order := append([]arrival(nil), x.states...)
					rng.ShuffleSlice(r, order)
					a := x.receiver(t)
					last := len(order) - 1
					for _, s := range order[:last] {
						a.Deliver(s.from, s.st)
					}
					a.Deliver(order[0].from, poison) // duplicate sender
					a.Deliver(x.out.Smallest(), poison)
					a.Deliver(far, poison)
					a.Deliver(order[last].from, &stale)
					if a.phase != phaseExchange {
						t.Fatalf("perm %d: resolved before the last member's state", p)
					}
					a.Deliver(order[last].from, order[last].st)
					if a.phase == phaseExchange {
						t.Fatalf("perm %d: did not resolve", p)
					}
					got := outcomeOf(t, a, n)
					if d := got.diff(want); d != "" {
						t.Fatalf("perm %d: %s", p, d)
					}
					decided += got.attempts

					a.Deliver(order[0].from, order[0].st)
					if a.phase == phaseAttempt {
						attempt := &AttemptMessage{ViewID: x.v.ID, Session: a.attemptSession}
						a.Deliver(far, attempt)
						a.Deliver(x.out.Smallest(), attempt)
						if c := a.attempts.Count(); c != 1 {
							t.Fatalf("perm %d: %d attempts counted, want only self's", p, c)
						}
					}
					if sent := a.Poll(); len(sent) != 0 {
						t.Fatalf("perm %d: %d messages sent after resolution: resolved twice?", p, len(sent))
					}
				}
				t.Logf("%d of %d permutations attempted", decided, perms)
			})
		}
	}
}
