package sim

import (
	"strings"
	"testing"

	"dynvote/internal/proc"
	"dynvote/internal/rng"
	"dynvote/internal/view"
	"dynvote/internal/ykd"
)

// TestRecoveryNeedsDurableState is why a replica must restart from
// stable storage. {0,1,2} forms a primary beside {3,4}; p0 crashes and
// recovers, then the network splits into {1,2} | {0,3,4}. Recovered
// from its crash-time snapshot, p0 remembers {0,1,2} and {0,3,4} holds
// only one of its three members, so {1,2} alone is primary. Replaced by
// a fresh instance, as a process that lost its durable state restarts,
// p0 believes the initial five-process view was the last primary, so
// {0,3,4} is a majority of it while {1,2} is a majority of {0,1,2}:
// two primaries.
func TestRecoveryNeedsDurableState(t *testing.T) {
	for _, arm := range []struct {
		name  string
		fresh bool
	}{{"snapshot", false}, {"fresh", true}} {
		t.Run(arm.name, func(t *testing.T) {
			c := NewCluster(ykd.Factory(ykd.VariantYKD), 5)
			r := rng.New(1)
			settle := func(a, b view.View) {
				t.Helper()
				c.Collect(r)
				c.IssueViews(r, a, b)
				if _, err := c.RunToQuiescence(r, 100); err != nil {
					t.Fatal(err)
				}
			}
			settle(view.View{ID: 1, Members: proc.NewSet(0, 1, 2)},
				view.View{ID: 2, Members: proc.NewSet(3, 4)})
			if !allInPrimary(c, proc.NewSet(0, 1, 2)) || allInPrimary(c, proc.NewSet(3, 4)) {
				t.Fatal("{0,1,2} | {3,4} did not settle with {0,1,2} primary")
			}

			c.Crash(0)
			if err := c.Recover(0); err != nil {
				t.Fatal(err)
			}
			if arm.fresh {
				c.algs[0] = c.factory.New(0, c.initial)
			}
			settle(view.View{ID: 3, Members: proc.NewSet(1, 2)},
				view.View{ID: 4, Members: proc.NewSet(0, 3, 4)})

			err := CheckOnePrimary(c)
			if !arm.fresh {
				if err != nil {
					t.Fatal(err)
				}
				if !allInPrimary(c, proc.NewSet(1, 2)) || allInPrimary(c, proc.NewSet(0, 3, 4)) {
					t.Fatal("want {1,2} alone primary after recovery from the snapshot")
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "two primary components") {
				t.Fatalf("fresh recovery: CheckOnePrimary = %v, want two primary components", err)
			}
		})
	}
}
