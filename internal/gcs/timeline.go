package gcs

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"dynvote/internal/proc"
)

// TimelineEvent is one structured entry in a cluster's failover
// timeline: which node, what happened, when.
type TimelineEvent struct {
	At      time.Time
	Node    proc.ID
	Kind    EventKind
	ViewID  int64
	Members proc.Set
	Primary bool
}

// String renders the event for human-readable timelines.
func (e TimelineEvent) String() string {
	switch e.Kind {
	case EventViewProposed:
		return fmt.Sprintf("n%d proposes view %d %v", e.Node, e.ViewID, e.Members)
	case EventView:
		return fmt.Sprintf("n%d installs view %d %v", e.Node, e.ViewID, e.Members)
	case EventPrimary:
		if e.Primary {
			return fmt.Sprintf("n%d regains primary", e.Node)
		}
		return fmt.Sprintf("n%d loses primary", e.Node)
	default:
		return fmt.Sprintf("n%d event %d", e.Node, e.Kind)
	}
}

// Timeline records node events with wall-clock timestamps across a
// cluster, so a harness can inject a fault and measure concrete
// time-to-recovery — the live analogue of the thesis's availability
// metric (time spent outside a primary component). Hook one handler
// per node; recording is concurrency-safe and cheap enough for the
// node loop. A nil Timeline is a no-op.
type Timeline struct {
	mu     sync.Mutex
	events []TimelineEvent
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// Hook returns an event handler recording node id's view and primary
// transitions (application payloads are load, not membership — they
// are skipped). Chain it from a Config.OnEvent callback.
func (tl *Timeline) Hook(id proc.ID) func(Event) {
	return func(ev Event) { tl.Record(id, ev) }
}

// Record appends one event, stamping the current time.
func (tl *Timeline) Record(id proc.ID, ev Event) {
	if tl == nil || ev.Kind == EventApp {
		return
	}
	te := TimelineEvent{
		At:      time.Now(),
		Node:    id,
		Kind:    ev.Kind,
		ViewID:  ev.View.ID,
		Members: ev.View.Members,
		Primary: ev.Primary,
	}
	tl.mu.Lock()
	tl.events = append(tl.events, te)
	tl.mu.Unlock()
}

// Events returns a copy of the recorded timeline in arrival order.
func (tl *Timeline) Events() []TimelineEvent {
	if tl == nil {
		return nil
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	out := make([]TimelineEvent, len(tl.events))
	copy(out, tl.events)
	return out
}

// Len returns the number of recorded events.
func (tl *Timeline) Len() int {
	if tl == nil {
		return 0
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return len(tl.events)
}

// Recovery measures primary-component failover after a fault injected
// at the given time: lost is when the first node dropped out of the
// primary at or after that moment, regained when the first node was
// back in a primary component after the loss. ok is false until both
// transitions have been observed. The durations are measured from the
// injection time, so `regained` is the harness-visible
// time-to-primary-recovery.
func (tl *Timeline) Recovery(injectedAt time.Time) (lost, regained time.Duration, ok bool) {
	if tl == nil {
		return 0, 0, false
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var lostAt time.Time
	for _, e := range tl.events {
		if e.Kind != EventPrimary || e.At.Before(injectedAt) {
			continue
		}
		if lostAt.IsZero() {
			if !e.Primary {
				lostAt = e.At
			}
			continue
		}
		if e.Primary {
			return lostAt.Sub(injectedAt), e.At.Sub(injectedAt), true
		}
	}
	return 0, 0, false
}

// Rejoin measures how long one node stayed outside the primary
// component after a heal: from healedAt to that node's first primary
// regain at or after it. Recovery is satisfied by whichever node is
// primary again first, which after a partition is the majority side
// re-forming around the fault; the replica that was cut off waits for
// recovery detection, a membership round and the voting algorithm, and
// this is the number for it. ok is false until the node has regained.
func (tl *Timeline) Rejoin(node proc.ID, healedAt time.Time) (rejoin time.Duration, ok bool) {
	if tl == nil {
		return 0, false
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	for _, e := range tl.events {
		if e.Kind == EventPrimary && e.Primary && e.Node == node && !e.At.Before(healedAt) {
			return e.At.Sub(healedAt), true
		}
	}
	return 0, false
}

// CountKind returns how many events of the given kind were recorded.
func (tl *Timeline) CountKind(kind EventKind) int {
	if tl == nil {
		return 0
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	n := 0
	for _, e := range tl.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// String renders the whole timeline, one event per line, with
// millisecond offsets from the first event.
func (tl *Timeline) String() string {
	events := tl.Events()
	if len(events) == 0 {
		return "(empty timeline)"
	}
	t0 := events[0].At
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintf(&b, "%8.1fms  %s\n", float64(e.At.Sub(t0))/float64(time.Millisecond), e)
	}
	return b.String()
}
