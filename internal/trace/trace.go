// Package trace records structured simulation events for debugging
// and for the demo binaries: view installations, message deliveries
// and drops, primary formations. A Recorder is a ring of fixed length,
// so that the most recent history is there when an invariant trips.
// Recording takes a mutex and writes one slot in place: no allocation,
// and a cost that does not depend on the capacity.
//
// The soak does not pay for it on a passing chain. A campaign chain is
// a pure function of its seed, so quorumcheck runs every chain without
// a recorder and attaches one only when it replays a chain that failed;
// the replay stops at the same violation with the ring full of its
// last moments. A Record into a full ring takes about 24 ns whether the
// capacity is 16, 4096 or 65536 (BenchmarkRecordFull); DESIGN.md
// "Observability" has the numbers.
package trace

import (
	"fmt"
	"strings"
	"sync"

	"dynvote/internal/proc"
	"dynvote/internal/view"
)

// Kind classifies an event.
type Kind int

const (
	// KindView: a process installed a view.
	KindView Kind = iota + 1
	// KindDeliver: a message was delivered.
	KindDeliver
	// KindDrop: a delivery was dropped (view-synchronous or filtered).
	KindDrop
	// KindChange: a connectivity change was injected.
	KindChange
	// KindNote: free-form annotation.
	KindNote
)

func (k Kind) String() string {
	switch k {
	case KindView:
		return "view"
	case KindDeliver:
		return "deliver"
	case KindDrop:
		return "drop"
	case KindChange:
		return "change"
	case KindNote:
		return "note"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one recorded occurrence.
type Event struct {
	Seq     uint64
	Kind    Kind
	Process proc.ID
	From    proc.ID
	View    view.View
	Detail  string
	// Reason says why a delivery was dropped ("crashed", "view
	// changed", "filtered"). Emitters set it to a static string and
	// String joins it to Detail, so recording a drop builds no string.
	Reason string
}

// String renders the event on one line.
func (e Event) String() string {
	switch e.Kind {
	case KindView:
		return fmt.Sprintf("#%d %s %v installs %v", e.Seq, e.Kind, e.Process, e.View)
	case KindDeliver, KindDrop:
		if e.Reason != "" {
			return fmt.Sprintf("#%d %s %v→%v %s (%s)", e.Seq, e.Kind, e.From, e.Process, e.Detail, e.Reason)
		}
		return fmt.Sprintf("#%d %s %v→%v %s", e.Seq, e.Kind, e.From, e.Process, e.Detail)
	default:
		return fmt.Sprintf("#%d %s %s", e.Seq, e.Kind, e.Detail)
	}
}

// Recorder is a bounded event log: a ring of fixed length written in
// place. The zero value is unusable; use NewRecorder. Safe for
// concurrent use.
type Recorder struct {
	mu   sync.Mutex
	buf  []Event // len(buf) is the capacity; every slot is reused in place
	head int     // slot the next event goes to; once full, also the oldest event
	next uint64  // events ever recorded, and the next event's Seq
}

// NewRecorder keeps the most recent capacity events (minimum 16).
func NewRecorder(capacity int) *Recorder {
	if capacity < 16 {
		capacity = 16
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// Record stores an event, overwriting the oldest once the ring is
// full. The cost does not depend on the capacity.
func (r *Recorder) Record(e Event) {
	r.mu.Lock()
	e.Seq = r.next
	r.next++
	r.buf[r.head] = e
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.mu.Unlock()
}

// Notef records a formatted free-form annotation.
func (r *Recorder) Notef(format string, args ...any) {
	r.Record(Event{Kind: KindNote, Detail: fmt.Sprintf(format, args...)})
}

// Events returns a copy of the retained history, oldest first.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.retained()
	oldest := 0
	if n == len(r.buf) {
		oldest = r.head
	}
	out := make([]Event, n)
	k := copy(out, r.buf[oldest:n])
	copy(out[k:], r.buf[:oldest])
	return out
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retained()
}

// retained is Len with r.mu held: until the ring first wraps, head
// counts the events written.
func (r *Recorder) retained() int {
	if r.next < uint64(len(r.buf)) {
		return r.head
	}
	return len(r.buf)
}

// Total returns the number of events ever recorded.
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Dump renders the retained history, one event per line.
func (r *Recorder) Dump() string {
	evs := r.Events()
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
