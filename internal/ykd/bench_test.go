package ykd

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"dynvote/internal/proc"
	"dynvote/internal/view"
)

// benchExchange drives one full two-round exchange over n processes
// directly (no simulator), isolating the algorithm's own cost.
func benchExchange(b *testing.B, n int) {
	initial := view.View{ID: 0, Members: proc.Universe(n)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		algs := make([]*Algorithm, n)
		for p := range algs {
			algs[p] = New(VariantYKD, proc.ID(p), initial)
		}
		v := view.View{ID: 1, Members: proc.Universe(n)}
		for _, a := range algs {
			a.ViewChange(v)
		}
		// Round 1: state messages.
		for p, a := range algs {
			for _, m := range a.Poll() {
				for q, other := range algs {
					if q != p {
						other.Deliver(proc.ID(p), m)
					}
				}
			}
		}
		// Round 2: attempts.
		for p, a := range algs {
			for _, m := range a.Poll() {
				for q, other := range algs {
					if q != p {
						other.Deliver(proc.ID(p), m)
					}
				}
			}
		}
		if !algs[0].InPrimary() {
			b.Fatal("exchange did not form")
		}
	}
}

func BenchmarkExchange8(b *testing.B)  { benchExchange(b, 8) }
func BenchmarkExchange64(b *testing.B) { benchExchange(b, 64) }

func BenchmarkStateMessageEncode(b *testing.B) {
	a := New(VariantYKD, 0, view.View{ID: 0, Members: proc.Universe(64)})
	a.ViewChange(view.View{ID: 1, Members: proc.Universe(64)})
	msgs := a.Poll()
	if len(msgs) == 0 {
		b.Fatal("no state message")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Codec{}).Encode(msgs[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// stateRound is one receiver and the states the other members of v
// send it, reusable view after view: next installs the following view
// and retags the states, deliver hands them all over.
type stateRound struct {
	a      *Algorithm
	v      view.View
	from   []proc.ID
	states []*StateMessage
}

// newStateRound builds process 0 of a universe of n and the states of
// v's other members, each from a fresh instance.
func newStateRound(n int, members proc.Set) *stateRound {
	initial := view.View{ID: 0, Members: proc.Universe(n)}
	r := &stateRound{a: New(VariantYKD, 0, initial), v: view.View{Members: members}}
	members.ForEach(func(q proc.ID) {
		if q != 0 {
			r.from = append(r.from, q)
			r.states = append(r.states, New(VariantYKD, q, initial).snapshotState(0))
		}
	})
	return r
}

func (r *stateRound) next() {
	r.v.ID++
	for _, st := range r.states {
		st.ViewID = r.v.ID
	}
	r.a.ViewChange(r.v)
	r.a.Poll()
}

func (r *stateRound) deliver() {
	for i, st := range r.states {
		r.a.Deliver(r.from[i], st)
	}
}

// TestStateExchangeAllocFree pins the state round at zero allocations:
// after one warm-up view, taking in a whole view's states and resolving
// them allocates nothing. ViewChange is left out of the count (it
// builds the outgoing StateMessage), and the view is a minority of the
// universe, so DECIDE says no and sends no AttemptMessage.
func TestStateExchangeAllocFree(t *testing.T) {
	// The count is process-wide, so keep the runtime's own allocations
	// out of it: with the collector off the scavenger is not woken to
	// grow a timer heap, and with one P (as testing.AllocsPerRun runs)
	// ReadMemStats' restart of the world starts no new M.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, n := range []int{64, 1024} {
		t.Run(fmt.Sprintf("procs=%d", n), func(t *testing.T) {
			r := newStateRound(n, proc.Universe(n/2-1))
			r.next()
			r.deliver()
			if r.a.phase != phaseIdle || r.a.InPrimary() {
				t.Fatal("warm-up view did not resolve to a non-primary")
			}
			const views = 20
			var before, after runtime.MemStats
			var mallocs uint64
			for i := 0; i < views; i++ {
				r.next()
				runtime.ReadMemStats(&before)
				r.deliver()
				runtime.ReadMemStats(&after)
				mallocs += after.Mallocs - before.Mallocs
				if r.a.phase != phaseIdle {
					t.Fatalf("view %d did not resolve", i)
				}
			}
			if mallocs != 0 {
				t.Errorf("state round allocated %d times over %d views, want 0", mallocs, views)
			}
		})
	}
}

// BenchmarkStateExchange times one state round over the whole universe
// (the view a run starts from) and reports ns per state delivered.
func BenchmarkStateExchange(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			r := newStateRound(n, proc.Universe(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r.next()
				b.StartTimer()
				r.deliver()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(r.states)), "ns/state")
		})
	}
}
