package sim_test

import (
	"testing"

	"dynvote/internal/proc"
	"dynvote/internal/rng"
	"dynvote/internal/sim"
	"dynvote/internal/view"
	"dynvote/internal/ykd"
)

// BenchmarkCurrentViews measures the checker's per-round view scan on a
// partitioned 64-process cluster: four components, so the dedup mixes
// the previous-ID compare (members of one component are contiguous)
// with the scan of the result so far.
func BenchmarkCurrentViews(b *testing.B) {
	c := sim.NewCluster(ykd.Factory(ykd.VariantYKD), 64)
	r := rng.New(3)
	var members [4]proc.Set
	for p := 0; p < 64; p++ {
		members[p/16] = members[p/16].With(proc.ID(p))
	}
	c.IssueViews(r,
		view.View{ID: 10, Members: members[0]},
		view.View{ID: 11, Members: members[1]},
		view.View{ID: 12, Members: members[2]},
		view.View{ID: 13, Members: members[3]},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := c.CurrentViews(); len(vs) != 4 {
			b.Fatalf("got %d views, want 4", len(vs))
		}
	}
}
