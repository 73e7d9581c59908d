package gcs

import (
	"testing"
	"time"

	"dynvote/internal/proc"
)

// TestTimelineRejoin: rejoin is the named node's first primary regain
// at or after the heal, whatever the other nodes did meanwhile.
func TestTimelineRejoin(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	primary := func(ms int, node proc.ID, p bool) TimelineEvent {
		return TimelineEvent{At: at(ms), Node: node, Kind: EventPrimary, Primary: p}
	}
	// Node 2 is cut off at 0 ms; the majority re-forms at 1 ms; the
	// network heals at 400 ms; node 2 is back at 445 ms.
	cycle := []TimelineEvent{
		primary(-50, 2, true),
		primary(0, 0, false),
		primary(0, 2, false),
		primary(1, 0, true),
		{At: at(444), Node: 2, Kind: EventView},
		primary(444, 0, false),
		primary(445, 0, true),
		primary(445, 2, true),
		primary(900, 2, false),
		primary(950, 2, true),
	}
	for _, tc := range []struct {
		name     string
		events   []TimelineEvent
		node     proc.ID
		healedMs int
		want     time.Duration
		ok       bool
	}{
		{"cut-off replica", cycle, 2, 400, 45 * time.Millisecond, true},
		{"majority member answers for itself", cycle, 0, 400, 45 * time.Millisecond, true},
		{"regain at the heal instant counts", cycle, 2, 445, 0, true},
		{"only the first regain after the heal", cycle, 2, 446, 504 * time.Millisecond, true},
		{"regains before the heal do not count", cycle[:7], 2, 400, 0, false},
		{"node never seen", cycle, 1, 400, 0, false},
		{"empty timeline", nil, 2, 400, 0, false},
	} {
		tl := &Timeline{events: tc.events}
		got, ok := tl.Rejoin(tc.node, at(tc.healedMs))
		if got != tc.want || ok != tc.ok {
			t.Errorf("%s: Rejoin(%v, +%dms) = (%v, %v), want (%v, %v)",
				tc.name, tc.node, tc.healedMs, got, ok, tc.want, tc.ok)
		}
	}
}
