package sim_test

import (
	"testing"

	"dynvote/internal/algset"
	"dynvote/internal/core"
	"dynvote/internal/majority"
	"dynvote/internal/proc"
	"dynvote/internal/rng"
	"dynvote/internal/sim"
	"dynvote/internal/view"
	"dynvote/internal/ykd"
)

func TestClusterInitialState(t *testing.T) {
	c := sim.NewCluster(majority.Factory(), 4)
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.View(2); got.ID != 0 || got.Size() != 4 {
		t.Errorf("initial view = %v", got)
	}
	if !sim.HasPrimary(c) {
		t.Error("initial cluster must have a primary")
	}
	if err := sim.CheckOnePrimary(c); err != nil {
		t.Error(err)
	}
	if err := sim.CheckStableAgreement(c); err != nil {
		t.Error(err)
	}
	if !c.Quiescent() {
		t.Error("fresh cluster should be quiescent")
	}
}

func TestClusterRoundDeliversAll(t *testing.T) {
	c := sim.NewCluster(ykd.Factory(ykd.VariantYKD), 5)
	r := rng.New(3)
	c.IssueViews(r, view.View{ID: 1, Members: proc.NewSet(0, 1, 2)},
		view.View{ID: 2, Members: proc.NewSet(3, 4)})
	// Round 1: state messages. 3 senders × 2 recipients + 2 × 1.
	if got := c.Round(r); got != 3*2+2*1 {
		t.Errorf("round 1 scheduled %d deliveries, want 8", got)
	}
	if c.PendingDeliveries() != 0 {
		t.Error("round must drain")
	}
	rounds, err := c.RunToQuiescence(r, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rounds == 0 {
		t.Error("attempt round expected after state round")
	}
	if !c.Algorithm(0).InPrimary() {
		t.Error("majority component should form")
	}
}

func TestViewSynchronousDrop(t *testing.T) {
	// Messages sent in an old view must not reach a process that moved
	// to a new view.
	c := sim.NewCluster(ykd.Factory(ykd.VariantYKD), 3)
	r := rng.New(5)
	c.IssueViews(r, view.View{ID: 1, Members: proc.NewSet(0, 1, 2)})
	c.Collect(r) // state messages for view 1 now in flight
	// Before delivering, split the view.
	c.IssueViews(r, view.View{ID: 2, Members: proc.NewSet(0, 1)},
		view.View{ID: 3, Members: proc.NewSet(2)})
	c.DeliverAll(r) // all view-1 messages must be dropped silently
	if _, err := c.RunToQuiescence(r, 100); err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckStableAgreement(c); err != nil {
		t.Error(err)
	}
	// {0,1} is a majority of the initial 3 and forms.
	if !c.Algorithm(0).InPrimary() || c.Algorithm(2).InPrimary() {
		t.Error("unexpected primacy after mid-flight view change")
	}
}

// TestCurrentViewsManyComponents: a shattered cluster reports each
// component exactly once, ordered by its lowest-numbered member, both
// when every process is alone and when the two members of a component
// sit half the cluster apart (so the duplicate is neither adjacent nor
// near the front of the result).
func TestCurrentViewsManyComponents(t *testing.T) {
	for _, n := range []int{64, 1024} {
		c := sim.NewCluster(majority.Factory(), n)
		r := rng.New(int64(n))

		singletons := make([]view.View, n)
		for p := range singletons {
			singletons[p] = view.View{ID: int64(1 + p), Members: proc.NewSet(proc.ID(p))}
		}
		pairs := make([]view.View, n/2)
		for p := range pairs {
			pairs[p] = view.View{ID: int64(1 + n + p), Members: proc.NewSet(proc.ID(p), proc.ID(p+n/2))}
		}

		for _, want := range [][]view.View{singletons, pairs} {
			c.IssueViews(r, want...)
			got := c.CurrentViews()
			if len(got) != len(want) {
				t.Fatalf("n=%d: %d views, want %d", n, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || !got[i].Members.Equal(want[i].Members) {
					t.Fatalf("n=%d: view %d = %v, want %v", n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDriverFreshRunStableTopology(t *testing.T) {
	// Zero changes: the run stabilizes immediately with the initial
	// primary intact.
	d := sim.NewDriver(ykd.Factory(ykd.VariantYKD), sim.Config{
		Procs: 8, Changes: 0, MeanRounds: 1, CheckSafety: true,
	}, rng.New(7))
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.PrimaryFormed {
		t.Error("unchanged topology must keep its primary")
	}
	if res.ChangesInjected != 0 {
		t.Errorf("ChangesInjected = %d", res.ChangesInjected)
	}
}

func TestDriverInjectsRequestedChanges(t *testing.T) {
	d := sim.NewDriver(ykd.Factory(ykd.VariantYKD), sim.Config{
		Procs: 16, Changes: 6, MeanRounds: 2, CheckSafety: true,
	}, rng.New(11))
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ChangesInjected != 6 {
		t.Errorf("ChangesInjected = %d, want 6", res.ChangesInjected)
	}
	if len(res.AmbiguousAtChanges) != 6 {
		t.Errorf("AmbiguousAtChanges has %d samples, want 6", len(res.AmbiguousAtChanges))
	}
	if res.Rounds == 0 {
		t.Error("rounds not counted")
	}
}

func TestDriverDeterminism(t *testing.T) {
	run := func() []bool {
		d := sim.NewDriver(ykd.Factory(ykd.VariantYKD), sim.Config{
			Procs: 12, Changes: 4, MeanRounds: 1,
		}, rng.New(99))
		var out []bool
		for i := 0; i < 5; i++ {
			res, err := d.Run()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.PrimaryFormed)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at segment %d: %v vs %v", i, a, b)
		}
	}
}

func TestDriverMeasuresSizes(t *testing.T) {
	d := sim.NewDriver(ykd.Factory(ykd.VariantYKD), sim.Config{
		Procs: 16, Changes: 4, MeanRounds: 2, MeasureSizes: true,
	}, rng.New(13))
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMessageBytes == 0 || res.MaxRoundBytes == 0 {
		t.Errorf("size stats missing: %+v", res)
	}
	if res.MaxMessageBytes > 2048 {
		t.Errorf("single message of %d bytes exceeds the §3.4 ballpark", res.MaxMessageBytes)
	}
}

// TestTrialByFire is a scaled-down version of the thesis's §2.2 soak:
// every algorithm endures randomized cascading connectivity changes
// with the safety checker enabled after every round.
func TestTrialByFire(t *testing.T) {
	changes := 400
	if testing.Short() {
		changes = 80
	}
	for _, f := range algset.All() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			d := sim.NewDriver(f, sim.Config{
				Procs: 16, Changes: changes, MeanRounds: 1.5, CheckSafety: true,
			}, rng.New(2026))
			res, err := d.Run()
			if err != nil {
				t.Fatalf("after %d changes: %v", res.ChangesInjected, err)
			}
			if res.ChangesInjected != changes {
				t.Errorf("injected %d changes, want %d", res.ChangesInjected, changes)
			}
		})
	}
}

// TestCascadingRunsKeepState verifies the cascading-mode contract: the
// second run continues from the first run's topology.
func TestCascadingRunsKeepState(t *testing.T) {
	d := sim.NewDriver(ykd.Factory(ykd.VariantYKD), sim.Config{
		Procs: 8, Changes: 3, MeanRounds: 1,
	}, rng.New(21))
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	comps := d.Topology().NumComponents()
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	// With only partitions/merges from a retained topology, seeing the
	// exact same fresh single component every time would be suspect;
	// just verify the topology object persisted and stayed coherent.
	if err := d.Topology().CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	_ = comps
}

// TestAvailabilityOrderingSmoke runs a small sweep and checks the
// headline qualitative result on aggregate: YKD is at least as
// available as 1-pending, which blocks on pending sessions.
func TestAvailabilityOrderingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("aggregate smoke test")
	}
	count := func(f core.Factory) int {
		formed := 0
		for seed := int64(0); seed < 60; seed++ {
			d := sim.NewDriver(f, sim.Config{Procs: 16, Changes: 8, MeanRounds: 2}, rng.New(seed))
			res, err := d.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.PrimaryFormed {
				formed++
			}
		}
		return formed
	}
	ykdFormed := count(ykd.Factory(ykd.VariantYKD))
	opFormed := count(ykd.Factory(ykd.VariantOnePending))
	if ykdFormed < opFormed {
		t.Errorf("YKD formed %d primaries, 1-pending %d; expected YKD ≥ 1-pending", ykdFormed, opFormed)
	}
}

func TestCheckOnePrimaryDetectsViolation(t *testing.T) {
	// Simple-majority with a doctored "two primaries" situation cannot
	// be produced by the algorithms, so build the condition directly:
	// two singleton views each believing it is primary requires a
	// broken algorithm. Use a stub factory.
	c := sim.NewCluster(stubFactory(), 2)
	r := rng.New(1)
	c.IssueViews(r, view.View{ID: 1, Members: proc.NewSet(0)},
		view.View{ID: 2, Members: proc.NewSet(1)})
	if err := sim.CheckOnePrimary(c); err == nil {
		t.Error("checker missed two concurrent primaries")
	} else if _, ok := err.(*sim.SafetyError); !ok {
		t.Errorf("error type = %T, want *sim.SafetyError", err)
	}
}

// stub is an intentionally broken algorithm that always claims to be
// in a primary component, used to prove the checker can fail.
type stub struct{ self proc.ID }

func stubFactory() core.Factory {
	return core.Factory{
		Name: "stub-always-primary",
		New:  func(self proc.ID, _ view.View) core.Algorithm { return &stub{self: self} },
	}
}

func (s *stub) Name() string                  { return "stub-always-primary" }
func (s *stub) ViewChange(view.View)          {}
func (s *stub) Deliver(proc.ID, core.Message) {}
func (s *stub) Poll() []core.Message          { return nil }
func (s *stub) InPrimary() bool               { return true }
