package campaign

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"dynvote/internal/algset"
	"dynvote/internal/core"
	"dynvote/internal/naive"
	"dynvote/internal/proc"
	"dynvote/internal/view"
)

// flakyInstances counts the instances flakyFactory has built, across
// every driver: the state that makes its chains depend on more than
// their seed.
var flakyInstances int

// alwaysPrimary declares every view it is in a primary, so the first
// partition yields two primaries.
type alwaysPrimary struct{ core.Algorithm }

func (alwaysPrimary) InPrimary() bool { return true }

// flakyFactory builds the naive strawman for a chain's first walk of
// procs processes and alwaysPrimary for every walk after it: a chain's
// traced replay fails at its first partition, not where naive did.
func flakyFactory(procs int) core.Factory {
	f := naive.Factory()
	f.New = func(self proc.ID, initial view.View) core.Algorithm {
		flakyInstances++
		if flakyInstances <= procs {
			return naive.New(self, initial)
		}
		return alwaysPrimary{naive.New(self, initial)}
	}
	return f
}

// TestReplayDivergenceGuard: a failed chain whose traced replay fails
// otherwise is reported as a divergence naming both outcomes, at the
// chain's coordinates, rather than handing back the replay's dump as if
// it were the failure's.
func TestReplayDivergenceGuard(t *testing.T) {
	flakyInstances = 0
	cfg := Config{
		Factories:   []core.Factory{flakyFactory(8)},
		Procs:       8,
		Changes:     40000,
		Segment:     10,
		Rate:        1,
		Seed:        29,
		Chains:      1,
		TraceRetain: 512,
	}
	_, err := RunChain(cfg, 0, 0, nil)
	if !errors.Is(err, errReplayDiverged) {
		t.Fatalf("RunChain error = %v, want the replay-divergence guard", err)
	}
	var ce *ChainError
	if !errors.As(err, &ce) || ce.Changes == 0 {
		t.Fatalf("error is %T (%v), want a *ChainError at naive's failure, after some changes", err, err)
	}
	msg := err.Error()
	for _, want := range []string{"untraced: sim: safety violation", "traced replay: " + naive.Name + ": INCONSISTENCY or failure after 0 changes", "--- trace"} {
		if !strings.Contains(msg, want) {
			t.Errorf("divergence error lacks %q:\n%.600s", want, msg)
		}
	}
}

// TestPassingChainAttachesNoRecorder: a chain that passes never
// allocates a trace ring, whatever TraceRetain asks for. A 1<<16-event
// ring is about 7 MiB; the two walks must allocate within 1 MiB of each
// other.
func TestPassingChainAttachesNoRecorder(t *testing.T) {
	f, err := algset.ByName("ykd")
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(retain int) uint64 {
		cfg := Config{
			Factories: []core.Factory{f},
			Procs:     64, Changes: 24, Segment: 12, Rate: 1.5, Seed: 3,
			TraceRetain: retain,
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunChain(cfg, 0, 0, nil); err != nil {
			t.Fatalf("retain=%d: %v", retain, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	alloc(0) // warm-up: one-time package state
	untraced, traced := alloc(0), alloc(1<<16)
	if traced > untraced+1<<20 {
		t.Errorf("passing chain allocated %d bytes at TraceRetain 1<<16, %d at 0: a recorder was attached",
			traced, untraced)
	}
}
