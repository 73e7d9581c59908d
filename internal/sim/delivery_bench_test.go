package sim_test

import (
	"fmt"
	"runtime"
	"testing"

	"dynvote/internal/rng"
	"dynvote/internal/sim"
)

// BenchmarkCollectDeliver measures one steady-state collect/deliver
// round of the maximum-traffic chatter workload. The 64-process point
// is the thesis's system size; 256 is the widest membership the inline
// proc.Set representation covers; 1024 exercises the wide-word spill,
// the batched delivery path, and the recipient-ID arena. All sizes
// must report 0 allocs/op — the benchmarked counterpart of the
// TestDeliveryLoopAllocFree* pins.
func BenchmarkCollectDeliver(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			c := sim.NewCluster(chatterFactory(), n)
			r := rng.New(17)
			c.Round(r) // grow pools and caches to steady-state capacity
			// Finish the GC cycle the set-up started: its background
			// workers allocate, and at -benchtime 1x that would land in
			// the one timed iteration.
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Collect(r)
				c.DeliverAll(r)
			}
		})
	}
}
