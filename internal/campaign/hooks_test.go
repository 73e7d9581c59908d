package campaign

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dynvote/internal/algset"
	"dynvote/internal/experiment"
)

// TestHooksNeverOverlap: a multi-worker campaign's Progress and
// AlgorithmDone hooks write to a plain bytes.Buffer with no lock of
// their own, each line in two writes. The Merge runs hooks one at a
// time, so no hook may start while another runs (an in-flight count,
// and the race detector on the buffer) and every line comes out whole.
func TestHooksNeverOverlap(t *testing.T) {
	defer experiment.SetParallelism(0)
	experiment.SetParallelism(4)
	var (
		buf      bytes.Buffer
		inFlight atomic.Int32
		overlaps atomic.Int32
	)
	hook := func(head, tail string) {
		if inFlight.Add(1) != 1 {
			overlaps.Add(1)
		}
		defer inFlight.Add(-1)
		buf.WriteString(head)
		buf.WriteString(tail)
	}
	cfg := Config{
		Factories: algset.All(), Procs: 16, Changes: 480, Segment: 12, Rate: 1.5, Seed: 7,
		Chains:        8,
		ProgressEvery: time.Nanosecond,
		Progress: func(u ProgressUpdate) {
			hook("progress "+u.Algorithm, fmt.Sprintf(" %d/%d %d\n", u.Chain+1, u.Chains, u.Injected))
		},
		AlgorithmDone: func(a AlgorithmResult) {
			hook("done "+a.Algorithm, fmt.Sprintf(" %d\n", a.Changes))
		},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if n := overlaps.Load(); n > 0 {
		t.Errorf("%d hook calls started while another hook ran", n)
	}
	var progress, done int
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var alg string
		var chain, chains, changes int
		if n, _ := fmt.Sscanf(line, "progress %s %d/%d %d", &alg, &chain, &chains, &changes); n == 4 && chains == 8 {
			progress++
		} else if n, _ := fmt.Sscanf(line, "done %s %d", &alg, &changes); n == 2 && changes == cfg.Changes {
			done++
		} else {
			t.Errorf("torn line: %q", line)
		}
	}
	if done != len(cfg.Factories) || progress < len(cfg.Factories)*cfg.Chains {
		t.Errorf("%d progress and %d done lines, want at least %d and exactly %d",
			progress, done, len(cfg.Factories)*cfg.Chains, len(cfg.Factories))
	}
}
