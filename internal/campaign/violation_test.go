package campaign

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"dynvote/internal/core"
	"dynvote/internal/naive"
	"dynvote/internal/sim"
	"dynvote/internal/trace"
)

// violationDumpGolden pins ChainError.Error() — violation, chain
// coordinates and the rendered trace window — for the naive strawman's
// split-brain at seed 29, per TraceRetain. The hashes were recorded
// with the shift-on-append recorder that preceded the ring, so a
// post-mortem reads byte for byte what it read before the rewrite.
var violationDumpGolden = map[int]string{
	16:  "8bde403a079bff13",
	128: "130c8a2eac29c273", // wrapped window holding "(view changed)" drop lines
	512: "0715a2513e90927e", // 383 events recorded in all: the ring never fills
}

// TestViolationDumpStable drives naive to its split-brain through
// campaign.Run and checks the window the recorder hands the
// post-mortem: oldest first, contiguous Seq, exactly min(retain,
// total) events, ending at or after the last change event, and the
// same text as ever.
func TestViolationDumpStable(t *testing.T) {
	histories := map[int][]trace.Event{}
	for _, retain := range []int{16, 128, 512} {
		_, err := Run(Config{
			Factories:   []core.Factory{naive.Factory()},
			Procs:       8,
			Changes:     40000,
			Segment:     10,
			Rate:        1,
			Seed:        29,
			Chains:      1,
			TraceRetain: retain,
		})
		var ce *ChainError
		if !errors.As(err, &ce) {
			t.Fatalf("retain=%d: error is %T (%v), want *ChainError", retain, err, err)
		}
		var ve *sim.ViolationError
		if !errors.As(err, &ve) {
			t.Fatalf("retain=%d: no *sim.ViolationError in the chain", retain)
		}
		h := ve.History
		histories[retain] = h
		if len(h) == 0 {
			t.Fatalf("retain=%d: empty history", retain)
		}
		for i := 1; i < len(h); i++ {
			if h[i].Seq != h[i-1].Seq+1 {
				t.Fatalf("retain=%d: Seq %d follows %d at index %d", retain, h[i].Seq, h[i-1].Seq, i)
			}
		}
		// The window is captured at the violation, so its last event is
		// the last one recorded: Seq+1 is the recorder's Total.
		total := h[len(h)-1].Seq + 1
		if want := min(uint64(retain), total); uint64(len(h)) != want {
			t.Errorf("retain=%d: history holds %d events, want min(retain, total=%d) = %d",
				retain, len(h), total, want)
		}

		msg := ce.Error()
		sum := fnv.New64a()
		sum.Write([]byte(msg))
		if got := fmt.Sprintf("%016x", sum.Sum64()); got != violationDumpGolden[retain] {
			t.Errorf("retain=%d: ChainError text hashes to %s, golden %s:\n%s",
				retain, got, violationDumpGolden[retain], msg)
		}
	}

	// Same seed, same run: every window ends on the same event, at or
	// after the last change injected, and a shorter window is the tail
	// of a longer one. retain=512 holds the whole run, so it names that
	// last change.
	long := histories[512]
	lastChange := -1
	for i, ev := range long {
		if ev.Kind == trace.KindChange {
			lastChange = i
		}
	}
	if lastChange < 0 {
		t.Fatal("retain=512: no change event in the violation history")
	}
	for _, retain := range []int{16, 128} {
		h := histories[retain]
		tail := long[len(long)-len(h):]
		for i := range h {
			if h[i].Seq != tail[i].Seq || h[i].String() != tail[i].String() {
				t.Fatalf("retain=%d event %d = %q, retain=512 tail has %q", retain, i, h[i], tail[i])
			}
		}
		if end, change := h[len(h)-1].Seq, long[lastChange].Seq; end < change {
			t.Errorf("retain=%d: history ends at #%d, before the last change #%d", retain, end, change)
		}
	}
}
