package core_test

import (
	"fmt"
	"testing"

	"dynvote/internal/core"
	"dynvote/internal/proc"
	"dynvote/internal/view"
	"dynvote/internal/ykd"
)

// steady is an algorithm stub with permanent outbound traffic: every
// Poll returns the same (immutable) messages, modeling a node whose
// algorithm speaks on each application send — the worst case for the
// piggyback path. Reusing one slice is legal under the Poll contract
// (valid until the next Poll).
type steady struct {
	out []core.Message
}

func (s *steady) Name() string                  { return "steady" }
func (s *steady) ViewChange(view.View)          {}
func (s *steady) Deliver(proc.ID, core.Message) {}
func (s *steady) Poll() []core.Message          { return s.out }
func (s *steady) InPrimary() bool               { return true }

// payloadBatch is k copies of one application payload: the batch a
// live node bundles when k Broadcasts are queued at one loop wake.
func payloadBatch(k int) [][]byte {
	apps := make([][]byte, k)
	for i := range apps {
		apps[i] = []byte("application payload bytes")
	}
	return apps
}

// BenchmarkPiggybackOutgoing measures the send path a live GCS node
// drives once per loop wake (gcs.Node bundles via Piggyback.Outgoing):
// two pending algorithm messages plus one application payload, or the
// 16 a write burst can have queued. The bundle buffer is owned by the
// Piggyback and reused across calls, so steady-state cost is the
// encoding alone.
func BenchmarkPiggybackOutgoing(b *testing.B) {
	for _, k := range []int{1, 16} {
		b.Run(fmt.Sprintf("payloads=%d", k), func(b *testing.B) {
			alg := &steady{out: []core.Message{attemptMsg(7), attemptMsg(8)}}
			pb := core.NewPiggyback(alg, ykd.Codec{})
			apps := payloadBatch(k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, send, err := pb.Outgoing(apps...); err != nil || !send {
					b.Fatalf("Outgoing = %v, %v", send, err)
				}
			}
		})
	}
}

// BenchmarkPiggybackRoundTrip adds the receive side: the bundle is
// unpacked, algorithm messages delivered, payloads handed over.
func BenchmarkPiggybackRoundTrip(b *testing.B) {
	for _, k := range []int{1, 16} {
		b.Run(fmt.Sprintf("payloads=%d", k), func(b *testing.B) {
			sender := core.NewPiggyback(&steady{out: []core.Message{attemptMsg(7)}}, ykd.Codec{})
			receiver := core.NewPiggyback(&steady{}, ykd.Codec{})
			apps := payloadBatch(k)
			got := 0
			deliver := func([]byte) { got++ }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, _, err := sender.Outgoing(apps...)
				if err != nil {
					b.Fatal(err)
				}
				if err := receiver.Incoming(1, data, deliver); err != nil {
					b.Fatal(err)
				}
			}
			if got != k*b.N {
				b.Fatalf("delivered %d payloads, want %d", got, k*b.N)
			}
		})
	}
}
