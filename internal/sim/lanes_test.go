package sim

import (
	"fmt"
	"slices"
	"testing"

	"dynvote/internal/core"
	"dynvote/internal/metrics"
	"dynvote/internal/proc"
	"dynvote/internal/rng"
	"dynvote/internal/trace"
	"dynvote/internal/view"
)

// probeMsg is distinct per sender and poll, so a lane holding another
// envelope's message shows.
type probeMsg struct{ from, seq int }

func (probeMsg) Kind() string { return "test/probe" }

// probe broadcasts one message per poll, counts what it receives per
// view it was in at the time, and counts deliveries that break
// per-sender FIFO order or come from someone other than their sender.
type probe struct {
	self, seq int
	cur       view.View
	got       map[int64]int
	last      map[int]int // highest seq delivered per sender
	misrouted int
}

func (a *probe) Name() string           { return "probe" }
func (a *probe) ViewChange(v view.View) { a.cur = v }
func (a *probe) Deliver(from proc.ID, m core.Message) {
	pm := m.(probeMsg)
	if pm.from != int(from) || pm.seq <= a.last[pm.from] {
		a.misrouted++
	}
	a.last[pm.from] = pm.seq
	a.got[a.cur.ID]++
}
func (a *probe) InPrimary() bool { return false }
func (a *probe) Poll() []core.Message {
	a.seq++
	return []core.Message{probeMsg{a.self, a.seq}}
}

func probeFactory() core.Factory {
	return core.Factory{Name: "probe", New: func(p proc.ID, v view.View) core.Algorithm {
		return &probe{self: int(p), cur: v, got: map[int64]int{}, last: map[int]int{}}
	}}
}

// checkLanes verifies the lane table against the queues: one lane per
// sender with queued envelopes and none for any other, each lane a
// suffix of its head envelope's recipients with that envelope's view and
// message, and pending equal to the lanes' recipients plus every
// envelope behind a head.
func checkLanes(t *testing.T, c *Cluster) {
	t.Helper()
	seen := make([]bool, c.n)
	total := 0
	for _, l := range c.lanes {
		if seen[l.sender] {
			t.Fatalf("sender %d has two lanes", l.sender)
		}
		seen[l.sender] = true
		q := c.queues[l.sender]
		if len(q) == 0 || len(l.recips) == 0 {
			t.Fatalf("sender %d: lane with %d recipients over %d queued envelopes", l.sender, len(l.recips), len(q))
		}
		head := q[0].recipients
		if !slices.Equal(head[len(head)-len(l.recips):], l.recips) || l.viewID != q[0].viewID || l.msg != q[0].msg {
			t.Fatalf("sender %d: lane is not its head envelope's undelivered suffix", l.sender)
		}
		total += len(l.recips)
		for _, env := range q[1:] {
			total += len(env.recipients)
		}
	}
	for s, q := range c.queues {
		if len(q) > 0 && !seen[s] {
			t.Fatalf("sender %d has %d queued envelopes and no lane", s, len(q))
		}
	}
	if total != c.PendingDeliveries() {
		t.Fatalf("lanes and queues hold %d deliveries, PendingDeliveries says %d", total, c.PendingDeliveries())
	}
}

// pendingTo counts the undelivered deliveries addressed to p.
func pendingTo(c *Cluster, p proc.ID) int {
	n := 0
	for _, l := range c.lanes {
		n += count(l.recips, p)
		for _, env := range c.queues[l.sender][1:] {
			n += count(env.recipients, p)
		}
	}
	return n
}

func count(ids []int32, p proc.ID) int {
	n := 0
	for _, id := range ids {
		if proc.ID(id) == p {
			n++
		}
	}
	return n
}

// TestLaneInvariants drives the lane table through the three events that
// reshape it from outside the delivery loop — a sender crashing with its
// head envelope half delivered, a recipient crashing with deliveries
// queued to it, and that recipient recovering into a new view — at the
// thesis's 64 processes and past proc.InlineProcs.
func TestLaneInvariants(t *testing.T) {
	for _, n := range []int{64, proc.InlineProcs + 44} {
		t.Run(fmt.Sprintf("procs=%d", n), func(t *testing.T) {
			c := NewCluster(probeFactory(), n)
			c.Metrics = NewMetrics(metrics.NewRegistry())
			const ring = 4096
			rec := trace.NewRecorder(ring)
			c.Trace = rec
			r := rng.New(int64(n))
			c.Collect(r)
			c.Collect(r) // two envelopes per sender: a head and one behind it
			checkLanes(t, c)

			// A sender crashes with its head envelope half delivered.
			sender := proc.ID(n / 2)
			lane := func() *lane {
				for i := range c.lanes {
					if c.lanes[i].sender == int(sender) {
						return &c.lanes[i]
					}
				}
				return nil
			}
			for lane() != nil && len(lane().recips) > (n-1)/2 {
				c.DeliverBatch(r, 1)
			}
			if lane() == nil || len(c.queues[sender]) != 2 {
				t.Fatalf("sender %d did not stop with its head half delivered", sender)
			}
			undelivered := len(lane().recips) + len(c.queues[sender][1].recipients)
			before := c.PendingDeliveries()
			c.Crash(sender)
			if got := before - c.PendingDeliveries(); got != undelivered {
				t.Errorf("crashing sender %d removed %d pending deliveries, want its %d undelivered", sender, got, undelivered)
			}
			if lane() != nil || len(c.queues[sender]) != 0 {
				t.Errorf("crashed sender %d keeps a lane or queued envelopes", sender)
			}
			checkLanes(t, c)

			// A recipient crashes: every delivery queued to it — and to
			// the crashed sender, a recipient too — is dropped and traced
			// as "crashed", and none reaches it.
			victim := proc.ID(n / 3)
			gotBefore := c.algs[victim].(*probe).got[0]
			droppedBefore := c.Metrics.Dropped.Value()
			c.Crash(victim)
			checkLanes(t, c)
			want := pendingTo(c, victim) + pendingTo(c, sender)
			if pendingTo(c, victim) == 0 {
				t.Fatal("no deliveries queued to the victim")
			}
			crashedDrops := 0
			for c.PendingDeliveries() > 0 {
				total := rec.Total()
				c.DeliverBatch(r, ring) // the ring holds a whole batch
				events := rec.Events()
				for _, e := range events[len(events)-int(rec.Total()-total):] {
					if e.Process != victim && e.Process != sender {
						continue
					}
					if e.Kind != trace.KindDrop || e.Reason != "crashed" {
						t.Fatalf("delivery to crashed %d traced as %v/%q", e.Process, e.Kind, e.Reason)
					}
					crashedDrops++
				}
			}
			checkLanes(t, c)
			if crashedDrops != want {
				t.Errorf("traced %d crashed drops to %d and %d, want %d", crashedDrops, victim, sender, want)
			}
			if got := c.Metrics.Dropped.Value() - droppedBefore; got != int64(want) {
				t.Errorf("counted %d drops, want the %d deliveries queued to %d and %d", got, want, victim, sender)
			}
			if got := c.algs[victim].(*probe).got[0]; got != gotBefore {
				t.Errorf("crashed %d received %d deliveries", victim, got-gotBefore)
			}

			// The victim recovers. Until its new view arrives it is back
			// in the view it crashed in, and receives that view's traffic.
			if err := c.Recover(victim); err != nil {
				t.Fatal(err)
			}
			c.Collect(r)
			c.DeliverAll(r)
			if got := c.algs[victim].(*probe).got[0] - gotBefore; got != n-2 {
				t.Errorf("recovered %d received %d view-0 deliveries, want %d", victim, got, n-2)
			}
			// It joins a new view with every live process: traffic sent in
			// that view reaches it, and its own reaches everyone.
			c.Collect(r)
			c.IssueViews(r, view.View{ID: 1, Members: proc.Universe(n).Without(sender)})
			c.DeliverAll(r) // view-0 traffic, now stale
			c.Collect(r)
			checkLanes(t, c)
			c.DeliverAll(r)
			for p := 0; p < n; p++ {
				if proc.ID(p) == sender {
					continue
				}
				a := c.algs[p].(*probe)
				if got := a.got[1]; got != n-2 {
					t.Errorf("process %d received %d deliveries in view 1, want %d", p, got, n-2)
				}
				if a.misrouted != 0 {
					t.Errorf("process %d received %d deliveries out of per-sender FIFO order", p, a.misrouted)
				}
			}
			checkLanes(t, c)
		})
	}
}
