package campaign

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"dynvote/internal/algset"
	"dynvote/internal/core"
	"dynvote/internal/experiment"
	"dynvote/internal/naive"
)

// stripTiming zeroes the wall-clock fields and the worker count so
// deterministic state can be compared across runs with
// reflect.DeepEqual.
func stripTiming(res *Result) *Result {
	res.Elapsed, res.Workers = 0, 0
	for i := range res.Algorithms {
		res.Algorithms[i].Elapsed = 0
		for j := range res.Algorithms[i].Chains {
			res.Algorithms[i].Chains[j].Wall = 0
		}
	}
	return res
}

// TestCampaignDeterministicAcrossWorkers is the engine's core contract:
// per-chain statistics and merged totals are bit-identical at 1, 3 and
// 8 workers, for every algorithm in the set, because each chain's
// randomness derives purely from (seed, algorithm, chain index).
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	defer experiment.SetParallelism(0)
	cfg := Config{
		Factories: algset.All(),
		Procs:     16,
		Changes:   240,
		Segment:   12,
		Rate:      1.5,
		Seed:      42,
		Chains:    4,
	}

	var ref *Result
	for _, workers := range []int{1, 3, 8} {
		experiment.SetParallelism(workers)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		stripTiming(res)
		if len(res.Algorithms) != len(cfg.Factories) {
			t.Fatalf("workers=%d: %d algorithm results, want %d",
				workers, len(res.Algorithms), len(cfg.Factories))
		}
		for _, a := range res.Algorithms {
			if len(a.Chains) != cfg.Chains {
				t.Fatalf("workers=%d: %s has %d chains, want %d",
					workers, a.Algorithm, len(a.Chains), cfg.Chains)
			}
			if a.Changes < cfg.Changes {
				t.Errorf("workers=%d: %s injected %d changes, want >= %d",
					workers, a.Algorithm, a.Changes, cfg.Changes)
			}
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("workers=%d: campaign result differs from workers=1:\n got %+v\nwant %+v",
				workers, res, ref)
		}
	}
}

// TestSingleChainMatchesSerialSeeding: a -chains 1 campaign must replay
// the historical serial soak's stream (rng.New(seed), no child label),
// so its stats differ from the same budget sharded into 2 chains —
// proof the seeding scheme actually switches over.
func TestSingleChainMatchesSerialSeeding(t *testing.T) {
	defer experiment.SetParallelism(0)
	experiment.SetParallelism(1)
	f, err := algset.ByName("ykd")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Factories: []core.Factory{f},
		Procs:     16, Changes: 240, Segment: 12, Rate: 1.5, Seed: 7, Chains: 1,
	}
	one, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Chains = 2
	two, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(one.Algorithms[0].Chains, two.Algorithms[0].Chains) {
		t.Error("1-chain and 2-chain campaigns produced identical chain stats; seeding scheme is not sharding")
	}
	if got := two.Algorithms[0].Changes; got < base.Changes {
		t.Errorf("2-chain campaign injected %d changes, want >= %d", got, base.Changes)
	}
}

// TestChainBudgetSplit: budgets cover the total exactly, remainder
// spread over the first chains.
func TestChainBudgetSplit(t *testing.T) {
	for _, tc := range []struct{ total, chains int }{
		{100000, 8}, {7, 3}, {5, 5}, {3, 8}, {240, 1},
	} {
		sum := 0
		for c := 0; c < tc.chains; c++ {
			b := chainBudget(tc.total, tc.chains, c)
			if c > 0 && b > chainBudget(tc.total, tc.chains, c-1) {
				t.Errorf("chainBudget(%d,%d): budget grows at chain %d", tc.total, tc.chains, c)
			}
			sum += b
		}
		if sum != tc.total {
			t.Errorf("chainBudget(%d,%d): budgets sum to %d", tc.total, tc.chains, sum)
		}
	}
}

// TestNaiveViolationAbortsCampaign: a violation in any chain must
// surface as a ChainError carrying the trace dump, and abort the other
// chains rather than letting the campaign run to its full budget. Every
// chain that failed before the abort carries its own dump.
func TestNaiveViolationAbortsCampaign(t *testing.T) {
	defer experiment.SetParallelism(0)
	for _, workers := range []int{1, 4} {
		experiment.SetParallelism(workers)
		cfg := Config{
			Factories:   []core.Factory{naive.Factory()},
			Procs:       8,
			Changes:     40000, // far more than needed: the abort must cut it short
			Segment:     10,
			Rate:        1,
			Seed:        29,
			Chains:      4,
			TraceRetain: 512,
			AlgorithmDone: func(a AlgorithmResult) {
				t.Errorf("workers=%d: AlgorithmDone fired for %s despite its violation", workers, a.Algorithm)
			},
		}
		res, err := Run(cfg)
		if err == nil {
			t.Fatalf("workers=%d: the naive strawman survived the campaign", workers)
		}
		var ce *ChainError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: error is %T, want *ChainError", workers, err)
		}
		if msg := ce.Error(); !strings.Contains(msg, "INCONSISTENCY") || !strings.Contains(msg, "--- trace") {
			t.Errorf("workers=%d: ChainError missing violation/trace dump: %.200s", workers, msg)
		}
		if !strings.Contains(ce.Error(), "chain") {
			t.Errorf("workers=%d: sharded ChainError missing chain coordinates: %.120s", workers, ce.Error())
		}
		if len(res.Violations) == 0 {
			t.Errorf("workers=%d: result records no violations", workers)
		}
		// Each failed chain is replayed with the ring, and another
		// chain's abort must not cut that replay short.
		for _, v := range res.Violations {
			if !strings.Contains(v.Error(), "--- trace") {
				t.Errorf("workers=%d: chain %d's violation carries no trace: %.200s", workers, v.Chain, v.Error())
			}
		}
		// The abort must have stopped well short of the full budget.
		if got := res.Algorithms[0].Changes; got >= cfg.Changes {
			t.Errorf("workers=%d: campaign ran to full budget (%d changes) despite violation", workers, got)
		}
	}
}

// TestChainErrorFormats: single-chain errors keep the historical text;
// sharded errors add chain coordinates. Unwrap exposes the cause.
func TestChainErrorFormats(t *testing.T) {
	cause := errors.New("boom")
	single := &ChainError{Algorithm: "ykd", Chain: 0, Chains: 1, Changes: 42, Err: cause}
	if got, want := single.Error(), "ykd: INCONSISTENCY or failure after 42 changes: boom"; got != want {
		t.Errorf("single-chain error = %q, want %q", got, want)
	}
	sharded := &ChainError{Algorithm: "ykd", Chain: 2, Chains: 8, Changes: 42, Err: cause}
	if got, want := sharded.Error(), "ykd chain 3/8: INCONSISTENCY or failure after 42 changes: boom"; got != want {
		t.Errorf("sharded error = %q, want %q", got, want)
	}
	if !errors.Is(sharded, cause) {
		t.Error("ChainError does not unwrap to its cause")
	}
}
