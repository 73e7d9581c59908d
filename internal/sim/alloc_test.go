package sim_test

import (
	"testing"

	"dynvote/internal/algset"
	"dynvote/internal/core"
	"dynvote/internal/proc"
	"dynvote/internal/rng"
	"dynvote/internal/sim"
	"dynvote/internal/trace"
	"dynvote/internal/view"
	"dynvote/internal/ykd"
)

// Allocation guards for the hot paths the perf work flattened: the
// collect/deliver loop (PR 2's envelope and recipient-cache recycling)
// and the reset lifecycle (this PR). A regression that reintroduces a
// per-delivery or per-reset allocation fails here long before anyone
// reads a benchmark diff.

// chatterMsg is a preallocated payload; chatter reuses one instance so
// the stub adds no allocations of its own to the measurement.
type chatterMsg struct{}

func (chatterMsg) Kind() string { return "test/chatter" }

// chatter broadcasts the same message every round, forever: the
// maximum-traffic algorithm, exercising Collect and DeliverBatch without
// any algorithm-side work.
type chatter struct {
	out []core.Message
}

func (c *chatter) Name() string                  { return "chatter" }
func (c *chatter) ViewChange(view.View)          {}
func (c *chatter) Deliver(proc.ID, core.Message) {}
func (c *chatter) InPrimary() bool               { return true }
func (c *chatter) Poll() []core.Message          { return c.out }

func chatterFactory() core.Factory {
	return core.Factory{
		Name: "chatter",
		New: func(proc.ID, view.View) core.Algorithm {
			return &chatter{out: []core.Message{chatterMsg{}}}
		},
	}
}

// TestDeliveryLoopAllocFree pins the steady-state collect/deliver loop
// at zero allocations per round: after warm-up, every envelope comes
// from the pool and every recipient list from the per-sender cache.
func TestDeliveryLoopAllocFree(t *testing.T) {
	c := sim.NewCluster(chatterFactory(), 8)
	r := rng.New(17)
	c.Round(r) // grow pools and caches to steady-state capacity

	allocs := testing.AllocsPerRun(50, func() {
		c.Collect(r)
		c.DeliverAll(r)
	})
	if allocs != 0 {
		t.Errorf("collect/deliver round allocates %.1f times, want 0", allocs)
	}
}

// TestTracedDeliverAllocFree pins the same loop with the soak's
// recorder attached (ring 4096, deliveries sampled one in eight): a
// round that delivers, then a round whose traffic is overtaken by a
// view change, with one process crashed throughout — so sampled
// deliveries, "view changed" drops and "crashed" drops all reach the
// ring, and none of them may build a string.
func TestTracedDeliverAllocFree(t *testing.T) {
	c := sim.NewCluster(chatterFactory(), 8)
	rec := trace.NewRecorder(4096)
	c.Trace = rec
	c.TraceSampleEvery = 8
	r := rng.New(17)
	c.Crash(7)
	nextView := int64(1)
	round := func() {
		c.Round(r)
		c.Collect(r)
		c.IssueViews(r, view.View{ID: nextView, Members: proc.Universe(8)})
		nextView++
		c.DeliverAll(r)
	}
	for rec.Total() < 2*4096 { // pools at steady state, ring full and wrapped
		round()
	}

	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("traced collect/deliver round allocates %.1f times, want 0", allocs)
	}
	seen := map[string]bool{}
	for _, e := range rec.Events() {
		seen[e.Kind.String()+"/"+e.Reason] = true
	}
	for _, want := range []string{"deliver/", "drop/view changed", "drop/crashed"} {
		if !seen[want] {
			t.Errorf("no %q event in the ring: the workload missed that branch (saw %v)", want, seen)
		}
	}
}

// TestDeliveryLoopAllocFree256 is the same pin at the scaling sweep's
// largest system size: 256 processes stay within proc.Set's inline
// words, so the steady-state loop must stay allocation-free there too.
func TestDeliveryLoopAllocFree256(t *testing.T) {
	c := sim.NewCluster(chatterFactory(), 256)
	r := rng.New(17)
	c.Round(r)

	allocs := testing.AllocsPerRun(20, func() {
		c.Collect(r)
		c.DeliverAll(r)
	})
	if allocs != 0 {
		t.Errorf("256-proc collect/deliver round allocates %.1f times, want 0", allocs)
	}
}

// TestDeliveryLoopAllocFree1024 pins the loop past the inline-word
// boundary: at 1024 processes every membership set spills to wide
// words and the batched delivery path, recipient-ID arena, and Bits
// scratch must all run without a single steady-state allocation.
func TestDeliveryLoopAllocFree1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-proc rounds are slow")
	}
	c := sim.NewCluster(chatterFactory(), 1024)
	r := rng.New(17)
	c.Round(r)

	allocs := testing.AllocsPerRun(3, func() {
		c.Collect(r)
		c.DeliverAll(r)
	})
	if allocs != 0 {
		t.Errorf("1024-proc collect/deliver round allocates %.1f times, want 0", allocs)
	}
}

// TestDriverResetAllocFree pins Driver.Reset — cluster, topology and
// all algorithm instances — at zero allocations for every algorithm in
// the study. The first reset after a run drains queues and clears the
// dirtied maps (covered by AllocsPerRun's warm-up call); the measured
// iterations keep exercising the full reset path on the settled
// driver.
func TestDriverResetAllocFree(t *testing.T) {
	const runs = 20
	for _, f := range algset.All() {
		t.Run(f.Name, func(t *testing.T) {
			cfg := sim.Config{Procs: 16, Changes: 4, MeanRounds: 2}
			// Derive every source up front: reset itself must not be
			// charged for the caller's seed bookkeeping.
			root := rng.New(53)
			srcs := make([]*rng.Source, runs+2)
			for i := range srcs {
				srcs[i] = root.ChildLabel("alloc", int64(i))
			}
			d := sim.NewDriver(f, cfg, srcs[0])
			if _, err := d.Run(); err != nil {
				t.Fatalf("warm-up run: %v", err)
			}
			i := 1
			allocs := testing.AllocsPerRun(runs, func() {
				d.Reset(srcs[i])
				i++
			})
			if allocs != 0 {
				t.Errorf("%s: Driver.Reset allocates %.1f times, want 0", f.Name, allocs)
			}
		})
	}
}

// TestDriverResetAllocFree256 repeats the reset pin at 256 processes,
// where every membership set spans all four inline words. Changes is
// kept small — the property under test is the reset path, not the run.
func TestDriverResetAllocFree256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-proc warm-up runs are slow")
	}
	const runs = 5
	for _, f := range algset.All() {
		t.Run(f.Name, func(t *testing.T) {
			cfg := sim.Config{Procs: 256, Changes: 2, MeanRounds: 1}
			root := rng.New(59)
			srcs := make([]*rng.Source, runs+2)
			for i := range srcs {
				srcs[i] = root.ChildLabel("alloc256", int64(i))
			}
			d := sim.NewDriver(f, cfg, srcs[0])
			if _, err := d.Run(); err != nil {
				t.Fatalf("warm-up run: %v", err)
			}
			i := 1
			allocs := testing.AllocsPerRun(runs, func() {
				d.Reset(srcs[i])
				i++
			})
			if allocs != 0 {
				t.Errorf("%s: 256-proc Driver.Reset allocates %.1f times, want 0", f.Name, allocs)
			}
		})
	}
}

// TestDriverResetAllocFree1024 repeats the reset pin at kilo-process
// width, where the arena rewind must reclaim every envelope chunk and
// recipient block without touching the allocator. One algorithm
// suffices — the reset path is algorithm-independent past the
// per-process Reset calls, which the 16- and 256-proc variants already
// cover for the full set.
func TestDriverResetAllocFree1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-proc warm-up runs are slow")
	}
	const runs = 3
	f := ykd.Factory(ykd.VariantYKD)
	cfg := sim.Config{Procs: 1024, Changes: 1, MeanRounds: 1}
	root := rng.New(61)
	srcs := make([]*rng.Source, runs+2)
	for i := range srcs {
		srcs[i] = root.ChildLabel("alloc1024", int64(i))
	}
	d := sim.NewDriver(f, cfg, srcs[0])
	if _, err := d.Run(); err != nil {
		t.Fatalf("warm-up run: %v", err)
	}
	i := 1
	allocs := testing.AllocsPerRun(runs, func() {
		d.Reset(srcs[i])
		i++
	})
	if allocs != 0 {
		t.Errorf("1024-proc Driver.Reset allocates %.1f times, want 0", allocs)
	}
}
