package naive_test

import (
	"errors"
	"testing"

	"dynvote/internal/core"
	"dynvote/internal/naive"
	"dynvote/internal/proc"
	"dynvote/internal/rng"
	"dynvote/internal/sim"
	"dynvote/internal/view"
)

// TestFigure31SplitBrain proves the naive approach is actually broken:
// replaying the exact Figure 3-1 scenario yields two concurrent
// primary components, and the safety checker catches it. This is the
// failure the dynamic voting algorithms exist to prevent — compare
// TestFigure31Scenario in the ykd package, where all of them pass.
func TestFigure31SplitBrain(t *testing.T) {
	const a, b, c, d, e = 0, 1, 2, 3, 4
	cl := sim.NewCluster(naive.Factory(), 5)
	r := rng.New(3)

	// Partition into {a,b,c} and {d,e}; c misses one state message, so
	// a and b declare {a,b,c} while c does not.
	cl.Drop = func(from, to proc.ID, m core.Message) bool {
		return to == c && from == a // c never hears from a
	}
	cl.Collect(r)
	cl.IssueViews(r, view.View{ID: 1, Members: proc.NewSet(a, b, c)},
		view.View{ID: 2, Members: proc.NewSet(d, e)})
	if _, err := cl.RunToQuiescence(r, 100); err != nil {
		t.Fatal(err)
	}
	cl.Drop = nil
	if !cl.Algorithm(a).InPrimary() || cl.Algorithm(c).InPrimary() {
		t.Fatal("setup failed: a,b should have declared without c")
	}

	// c joins d,e. {c,d,e} holds a majority of c's newest known
	// primary (the original five) and declares — while {a,b} also
	// declares as a majority of {a,b,c}. Split brain.
	cl.Collect(r)
	cl.IssueViews(r, view.View{ID: 3, Members: proc.NewSet(a, b)},
		view.View{ID: 4, Members: proc.NewSet(c, d, e)})
	if _, err := cl.RunToQuiescence(r, 100); err != nil {
		t.Fatal(err)
	}

	err := sim.CheckOnePrimary(cl)
	if err == nil {
		t.Fatal("the naive approach escaped the Figure 3-1 trap — it should not")
	}
	var se *sim.SafetyError
	if !errors.As(err, &se) {
		t.Fatalf("error type = %T", err)
	}
}

// TestNaiveWorksWithoutInterruptions: absent interruptions the naive
// rule behaves like dynamic voting — that is what makes it tempting.
func TestNaiveWorksWithoutInterruptions(t *testing.T) {
	cl := sim.NewCluster(naive.Factory(), 5)
	r := rng.New(1)
	cl.Collect(r)
	cl.IssueViews(r, view.View{ID: 1, Members: proc.NewSet(0, 1, 2)},
		view.View{ID: 2, Members: proc.NewSet(3, 4)})
	if _, err := cl.RunToQuiescence(r, 100); err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckOnePrimary(cl); err != nil {
		t.Fatal(err)
	}
	if !cl.Algorithm(0).InPrimary() || cl.Algorithm(3).InPrimary() {
		t.Error("clean partition should behave like dynamic voting")
	}
	// Shrink further: {0,1} is a majority of {0,1,2}.
	cl.Collect(r)
	cl.IssueViews(r, view.View{ID: 3, Members: proc.NewSet(0, 1)},
		view.View{ID: 4, Members: proc.NewSet(2)})
	if _, err := cl.RunToQuiescence(r, 100); err != nil {
		t.Fatal(err)
	}
	if !cl.Algorithm(0).InPrimary() {
		t.Error("shrinking should keep the primary")
	}
}

// TestTieBreakIsDeterministic: two members report different sessions
// with the same number, which split brain produces. Which one counts
// as newest decides whether the view declares, and it must not depend
// on map iteration or arrival order: the smallest member's session wins.
func TestTieBreakIsDeterministic(t *testing.T) {
	p1Session := view.Session{Number: 5, Members: proc.NewSet(1, 2, 3)} // {0,1,2} holds a majority
	p2Session := view.Session{Number: 5, Members: proc.NewSet(3, 4, 5)} // {0,1,2} holds none of it
	cur := view.View{ID: 7, Members: proc.NewSet(0, 1, 2)}
	for i := 0; i < 100; i++ {
		a := naive.New(0, view.View{ID: 0, Members: proc.NewSet(0, 1, 2, 3, 4, 5)})
		a.ViewChange(cur)
		first, second := proc.ID(1), proc.ID(2)
		if i%2 == 1 {
			first, second = second, first
		}
		for _, from := range []proc.ID{first, second} {
			s := p1Session
			if from == 2 {
				s = p2Session
			}
			a.Deliver(from, &naive.StateMessage{ViewID: cur.ID, LastPrimary: s})
		}
		if !a.InPrimary() || !a.PrimaryMembers().Equal(cur.Members) {
			t.Fatalf("trial %d: primary=%v members=%v, want p1's session to win and %v to declare",
				i, a.InPrimary(), a.PrimaryMembers(), cur)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	m := &naive.StateMessage{ViewID: 9, LastPrimary: view.Session{Number: 3, Members: proc.NewSet(0, 2)}}
	b, err := naive.Codec{}.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := naive.Codec{}.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	gm := got.(*naive.StateMessage)
	if gm.ViewID != 9 || !gm.LastPrimary.Equal(m.LastPrimary) {
		t.Errorf("round trip = %+v", gm)
	}
	if _, err := (naive.Codec{}).Decode([]byte{}); err == nil {
		t.Error("empty input accepted")
	}
	if m.Kind() != "naive/state" {
		t.Errorf("Kind = %q", m.Kind())
	}
}
