package trace_test

import (
	"fmt"
	"testing"

	"dynvote/internal/proc"
	"dynvote/internal/trace"
	"dynvote/internal/view"
)

// shiftLog is the recorder this package had before the ring, kept as
// the reference model: append, and once full shift everything down by
// one. O(capacity) per record, which is why it is only here.
type shiftLog struct {
	buf  []trace.Event
	next uint64
	cap  int
}

func newShiftLog(capacity int) *shiftLog {
	if capacity < 16 {
		capacity = 16
	}
	return &shiftLog{buf: make([]trace.Event, 0, capacity), cap: capacity}
}

func (l *shiftLog) record(e trace.Event) {
	e.Seq = l.next
	l.next++
	if len(l.buf) == l.cap {
		copy(l.buf, l.buf[1:])
		l.buf = l.buf[:len(l.buf)-1]
	}
	l.buf = append(l.buf, e)
}

// TestRingMatchesShiftModel compares the ring against the shift model
// at every capacity edge: empty, one short of full, full, first
// overwrite, one and two-and-a-bit times round. Notes, views and drops
// alternate, so a drop lands on a slot that last held a view.
func TestRingMatchesShiftModel(t *testing.T) {
	for _, capacity := range []int{1, 16, 17, 4096} {
		eff := max(capacity, 16)
		for _, n := range []int{0, eff - 1, eff, eff + 1, 2 * eff, 2*eff + 7} {
			t.Run(fmt.Sprintf("cap=%d/n=%d", capacity, n), func(t *testing.T) {
				ring, model := trace.NewRecorder(capacity), newShiftLog(capacity)
				for i := 0; i < n; i++ {
					// Distinct payloads, so a misplaced slot cannot hide
					// behind an equal neighbour.
					var e trace.Event
					switch {
					case i%3 == 0:
						e = trace.Event{Kind: trace.KindNote, Detail: fmt.Sprint("n", i)}
					case i%5 == 0:
						v := view.View{ID: int64(i % 2), Members: proc.NewSet(proc.ID(i%7), 300)}
						e = trace.Event{Kind: trace.KindView, Process: proc.ID(i % 7), View: v}
					default:
						e = trace.Event{Kind: trace.KindDrop, Process: proc.ID(i % 7), From: proc.ID(i % 5), Detail: "m", Reason: "r"}
					}
					ring.Record(e)
					model.record(e)
				}
				if ring.Len() != len(model.buf) || ring.Total() != model.next {
					t.Fatalf("Len=%d Total=%d, model %d/%d", ring.Len(), ring.Total(), len(model.buf), model.next)
				}
				got := ring.Events()
				if got == nil || len(got) != len(model.buf) {
					t.Fatalf("Events() = %d events (nil=%v), model has %d", len(got), got == nil, len(model.buf))
				}
				for i, want := range model.buf {
					g := got[i]
					if g.Seq != want.Seq || g.String() != want.String() ||
						g.View.ID != want.View.ID || !g.View.Members.Equal(want.View.Members) {
						t.Fatalf("event %d = %v with view %v, model %v with view %v", i, g, g.View, want, want.View)
					}
				}
			})
		}
	}
}

// TestDropReasonRendering: the reason travels in its own field and is
// joined only when the event is printed, in the historical format.
func TestDropReasonRendering(t *testing.T) {
	e := trace.Event{Seq: 20, Kind: trace.KindDrop, Process: 3, From: 0, Detail: "ykd/state", Reason: "view changed"}
	if got, want := e.String(), "#20 drop p0→p3 ykd/state (view changed)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	e.Reason = ""
	if got, want := e.String(), "#20 drop p0→p3 ykd/state"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestRecordAllocFree: recording into a full ring overwrites a slot in
// place.
func TestRecordAllocFree(t *testing.T) {
	r := trace.NewRecorder(4096)
	e := trace.Event{Kind: trace.KindDrop, Process: 1, From: 2, Detail: "ykd/state", Reason: "view changed"}
	for i := 0; i < 4096; i++ {
		r.Record(e)
	}
	if allocs := testing.AllocsPerRun(1000, func() { r.Record(e) }); allocs != 0 {
		t.Errorf("Record on a full ring allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkRecordFull records into a ring already at capacity. ns/op
// must not depend on the capacity; with the shift model it grew
// linearly (112 bytes moved per retained event per record).
func BenchmarkRecordFull(b *testing.B) {
	for _, capacity := range []int{16, 4096, 65536} {
		b.Run(fmt.Sprintf("cap=%d", capacity), func(b *testing.B) {
			r := trace.NewRecorder(capacity)
			e := trace.Event{Kind: trace.KindDeliver, Process: 1, From: 2, Detail: "ykd/state"}
			for i := 0; i < capacity; i++ {
				r.Record(e)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Record(e)
			}
		})
	}
}
