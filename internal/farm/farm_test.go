package farm

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dynvote/internal/algset"
	"dynvote/internal/campaign"
	"dynvote/internal/core"
	"dynvote/internal/experiment"
	"dynvote/internal/metrics"
	"dynvote/internal/naive"
)

// goldenConfig is the exact configuration pinned by
// internal/campaign/golden_test.go: the farm must reproduce those
// fingerprints bit-identically through coordinator + workers over TCP.
func goldenConfig(t *testing.T) campaign.Config {
	t.Helper()
	ykdF, err := algset.ByName("ykd")
	if err != nil {
		t.Fatal(err)
	}
	dflsF, err := algset.ByName("dfls")
	if err != nil {
		t.Fatal(err)
	}
	return campaign.Config{
		Factories: []core.Factory{ykdF, dflsF},
		Procs:     64,
		Changes:   120,
		Segment:   12,
		Rate:      1.5,
		Seed:      20000505,
		Chains:    3,
	}
}

// goldenWant are the pre-PR fingerprints from campaign/golden_test.go.
var goldenWant = []string{
	"ykd changes=144 runs=12 formed=10 assertions=300",
	"dfls changes=144 runs=12 formed=8 assertions=301",
}

// fingerprint renders the deterministic fields of a campaign result —
// per-chain and merged — so local and farmed runs can be compared
// byte-for-byte. Wall times and requeue counts are execution
// accounting, deliberately excluded.
func fingerprint(res *campaign.Result) string {
	var b strings.Builder
	for _, a := range res.Algorithms {
		fmt.Fprintf(&b, "%s changes=%d runs=%d formed=%d assertions=%d\n",
			a.Algorithm, a.Changes, a.Runs, a.Formed, a.Assertions)
		for _, c := range a.Chains {
			fmt.Fprintf(&b, "  chain %d: alg=%s changes=%d runs=%d formed=%d assertions=%d\n",
				c.Chain, c.Algorithm, c.Changes, c.Runs, c.Formed, c.Assertions)
		}
	}
	return b.String()
}

// startWorker joins the coordinator and serves in a goroutine; the
// returned wait function joins it (failing the test on serve errors).
func startWorker(t *testing.T, addr string, cfg WorkerConfig) func() {
	t.Helper()
	cfg.Addr = addr
	w, err := Join(cfg)
	if err != nil {
		t.Fatalf("worker join %s: %v", addr, err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Serve() }()
	return func() {
		if err := <-done; err != nil {
			t.Errorf("worker serve: %v", err)
		}
	}
}

// runFarm executes cfg through a coordinator plus workers and returns
// the merged result.
func runFarm(t *testing.T, camp campaign.Config, ccfg CoordinatorConfig, workers []WorkerConfig) (*campaign.Result, error) {
	t.Helper()
	ccfg.Campaign = camp
	if ccfg.Listen == "" {
		ccfg.Listen = "127.0.0.1:0"
	}
	c, err := NewCoordinator(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	waits := make([]func(), 0, len(workers))
	for _, wc := range workers {
		waits = append(waits, startWorker(t, c.Addr(), wc))
	}
	res, ferr := c.Run()
	for _, wait := range waits {
		wait()
	}
	return res, ferr
}

// recordDone points cfg.AlgorithmDone at a log and returns a check
// that each algorithm of a result fired it exactly once, with the
// counts and the Elapsed the result carries for it. The check empties
// the log for the next run.
func recordDone(t *testing.T, cfg *campaign.Config) func(label string, res *campaign.Result) {
	var mu sync.Mutex
	fired := map[string][]campaign.AlgorithmResult{}
	cfg.AlgorithmDone = func(a campaign.AlgorithmResult) {
		mu.Lock()
		fired[a.Algorithm] = append(fired[a.Algorithm], a)
		mu.Unlock()
	}
	return func(label string, res *campaign.Result) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		for _, a := range res.Algorithms {
			got := fired[a.Algorithm]
			if len(got) != 1 {
				t.Errorf("%s: AlgorithmDone fired %d times for %s, want 1", label, len(got), a.Algorithm)
				continue
			}
			if !reflect.DeepEqual(got[0], a) {
				t.Errorf("%s: AlgorithmDone for %s differs from the result:\n hook   %+v\n result %+v",
					label, a.Algorithm, got[0], a)
			}
			if a.Elapsed <= 0 || a.Elapsed > res.Elapsed {
				t.Errorf("%s: %s Elapsed %v outside (0, campaign %v]", label, a.Algorithm, a.Elapsed, res.Elapsed)
			}
		}
		clear(fired)
	}
}

// TestFarmGoldenLoopback: the same rootSeed run locally and via
// coordinator + {1, 3} workers over localhost TCP must produce
// bit-identical merged fingerprints — and both must equal the pre-PR
// golden constants. On every path AlgorithmDone fires once per
// algorithm with what the result carries, per-algorithm Elapsed
// included.
func TestFarmGoldenLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("farm soak in -short mode")
	}
	defer experiment.SetParallelism(0)
	experiment.SetParallelism(2)

	cfg := goldenConfig(t)
	checkDone := recordDone(t, &cfg)
	local, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkDone("local", local)
	want := fingerprint(local)
	for i, w := range goldenWant {
		a := local.Algorithms[i]
		got := fmt.Sprintf("%s changes=%d runs=%d formed=%d assertions=%d",
			a.Algorithm, a.Changes, a.Runs, a.Formed, a.Assertions)
		if got != w {
			t.Fatalf("local campaign moved off the pre-PR golden:\n got  %q\n want %q", got, w)
		}
	}

	for _, n := range []int{1, 3} {
		workers := make([]WorkerConfig, n)
		for i := range workers {
			workers[i] = WorkerConfig{Capacity: 2}
		}
		res, ferr := runFarm(t, cfg, CoordinatorConfig{}, workers)
		if ferr != nil {
			t.Fatalf("workers=%d: %v", n, ferr)
		}
		if got := fingerprint(res); got != want {
			t.Errorf("workers=%d: farmed merge differs from local run:\n got:\n%s\nwant:\n%s", n, got, want)
		}
		if res.Aborted {
			t.Errorf("workers=%d: clean farm run marked aborted", n)
		}
		checkDone(fmt.Sprintf("workers=%d", n), res)
	}
}

// TestFarmWorkerKillRequeuesExactlyOnce: a worker dying mid-campaign
// must have its outstanding chains re-issued, each merging exactly
// once — the merged result stays bit-identical to a local run and the
// requeue shows up in the accounting.
func TestFarmWorkerKillRequeuesExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("farm soak in -short mode")
	}
	defer experiment.SetParallelism(0)
	experiment.SetParallelism(2)

	cfg := goldenConfig(t)
	cfg.Chains = 6 // more cells, so the dying worker holds several
	local, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	res, ferr := runFarm(t, cfg, CoordinatorConfig{Metrics: reg}, []WorkerConfig{
		{Capacity: 2, dieAfterResults: 1}, // killed after its first result
		{Capacity: 2},
	})
	if ferr != nil {
		t.Fatal(ferr)
	}
	if got, want := fingerprint(res), fingerprint(local); got != want {
		t.Errorf("post-kill merge differs from local run:\n got:\n%s\nwant:\n%s", got, want)
	}

	requeued := 0
	for _, a := range res.Algorithms {
		for _, c := range a.Chains {
			requeued += c.Requeued
		}
	}
	if requeued == 0 {
		t.Error("worker died holding chains, yet nothing was requeued")
	}
	if v := reg.Counter("farm_chains_requeued_total", "").Value(); int(v) != requeued {
		t.Errorf("requeue counter %d != per-chain requeue sum %d", v, requeued)
	}
	// Exactly-once merge: every chain's runs counted once, so totals
	// match the local run (already covered by the fingerprint, but make
	// the double-merge failure mode explicit).
	for i, a := range res.Algorithms {
		if a.Runs != local.Algorithms[i].Runs {
			t.Errorf("%s merged %d runs, want %d (chain merged twice or lost)",
				a.Algorithm, a.Runs, local.Algorithms[i].Runs)
		}
	}
}

// TestFarmViolationAbortsFarm: the naive strawman's violation must
// surface at the coordinator as a ChainError with the trace dump, and
// abort the farm rather than running the full budget. Which chains fail
// before the abort is a matter of scheduling; what a failing chain
// reports is not: its error text is byte for byte the local campaign's.
func TestFarmViolationAbortsFarm(t *testing.T) {
	if testing.Short() {
		t.Skip("farm soak in -short mode")
	}
	defer experiment.SetParallelism(0)
	experiment.SetParallelism(2)
	cfg := campaign.Config{
		Factories:   []core.Factory{naive.Factory()},
		Procs:       8,
		Changes:     40000, // far more than needed: the abort must cut it short
		Segment:     10,
		Rate:        1,
		Seed:        29,
		Chains:      4,
		TraceRetain: 512,
		AlgorithmDone: func(a campaign.AlgorithmResult) {
			t.Errorf("AlgorithmDone fired for %s despite its violation", a.Algorithm)
		},
	}
	res, ferr := runFarm(t, cfg, CoordinatorConfig{}, []WorkerConfig{{Capacity: 2}})
	if ferr == nil {
		t.Fatal("the naive strawman survived the farmed campaign")
	}
	msg := ferr.Error()
	if !strings.Contains(msg, "INCONSISTENCY") || !strings.Contains(msg, "--- trace") {
		t.Errorf("farm violation missing inconsistency/trace dump: %.200s", msg)
	}
	if len(res.Violations) == 0 {
		t.Error("farm result records no violations")
	}
	if got := res.Algorithms[0].Changes; got >= cfg.Changes {
		t.Errorf("farm ran to full budget (%d changes) despite violation", got)
	}

	local, lerr := campaign.Run(cfg)
	if lerr == nil {
		t.Fatal("the naive strawman survived the local campaign")
	}
	localMsg := map[int]string{} // by chain; one algorithm
	for _, v := range local.Violations {
		localMsg[v.Chain] = v.Error()
	}
	for _, v := range res.Violations {
		want, ok := localMsg[v.Chain]
		if !ok {
			// The local campaign aborted this chain before it failed:
			// run it alone.
			_, err := campaign.RunChain(cfg, 0, v.Chain, nil)
			if err == nil {
				t.Fatalf("chain %d failed on the farm and passes locally", v.Chain)
			}
			want = err.Error()
		}
		if got := v.Error(); got != want {
			t.Errorf("chain %d: farm and local violations differ:\nfarm:  %.300s\nlocal: %.300s", v.Chain, got, want)
		}
	}
}

// TestFarmDrainEmitsPartialResult: Drain mid-campaign finishes the
// in-flight chains, merges what completed, and marks the result
// aborted — without hanging.
func TestFarmDrainEmitsPartialResult(t *testing.T) {
	if testing.Short() {
		t.Skip("farm soak in -short mode")
	}
	cfg := goldenConfig(t)
	cfg.Changes = 2400 // big enough that the drain lands mid-campaign
	cfg.Chains = 24

	c, err := NewCoordinator(CoordinatorConfig{Campaign: cfg, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	wait := startWorker(t, c.Addr(), WorkerConfig{Capacity: 1})
	go func() {
		time.Sleep(30 * time.Millisecond)
		c.Drain()
	}()
	done := make(chan struct{})
	var res *campaign.Result
	var ferr error
	go func() {
		res, ferr = c.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("drained farm did not finish")
	}
	wait()
	if ferr != nil {
		t.Fatalf("drain surfaced an error: %v", ferr)
	}
	if !res.Aborted {
		t.Error("drained farm result not marked aborted")
	}
	total := 0
	for _, a := range res.Algorithms {
		total += a.Changes
	}
	if total >= 2*cfg.Changes {
		t.Errorf("drained farm ran the full budget (%d changes)", total)
	}
}

// TestFarmStragglerReissue: a worker that sits on its chains forever
// must not stall the tail — the straggler deadline re-issues its
// chains to a live worker and the campaign completes, bit-identical.
func TestFarmStragglerReissue(t *testing.T) {
	if testing.Short() {
		t.Skip("farm soak in -short mode")
	}
	defer experiment.SetParallelism(0)
	experiment.SetParallelism(2)

	cfg := goldenConfig(t)
	local, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	c, err := NewCoordinator(CoordinatorConfig{
		Campaign:       cfg,
		Listen:         "127.0.0.1:0",
		StragglerAfter: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The black hole speaks the protocol but never executes anything:
	// it takes assignments and sits on them.
	hole := dialBlackHole(t, c.Addr(), 2)
	defer hole.Close()

	wait := startWorker(t, c.Addr(), WorkerConfig{Capacity: 2})
	res, ferr := c.Run()
	wait()
	if ferr != nil {
		t.Fatal(ferr)
	}
	if got, want := fingerprint(res), fingerprint(local); got != want {
		t.Errorf("straggler-hedged merge differs from local run:\n got:\n%s\nwant:\n%s", got, want)
	}
	requeued := 0
	for _, a := range res.Algorithms {
		for _, cs := range a.Chains {
			requeued += cs.Requeued
		}
	}
	if requeued == 0 {
		t.Error("straggler deadline never re-issued the black hole's chains")
	}
}

// TestFarmWorkersGauge: the workers gauge and peak tracking reflect
// joins and exits.
func TestFarmWorkersGauge(t *testing.T) {
	if testing.Short() {
		t.Skip("farm soak in -short mode")
	}
	cfg := goldenConfig(t)
	cfg.Changes = 60
	reg := metrics.NewRegistry()
	res, ferr := runFarm(t, cfg, CoordinatorConfig{Metrics: reg}, []WorkerConfig{
		{Capacity: 1}, {Capacity: 1},
	})
	if ferr != nil {
		t.Fatal(ferr)
	}
	if res == nil || len(res.Algorithms) == 0 {
		t.Fatal("no merged result")
	}
	if v := reg.Counter("farm_chains_completed_total", "").Value(); v != int64(2*cfg.Chains) {
		t.Errorf("completed counter = %d, want %d", v, 2*cfg.Chains)
	}
	// The coordinator-side connection handlers decrement the gauge as
	// they unwind; give them a moment after Run returns.
	gauge := reg.Gauge("farm_workers_connected", "")
	deadline := time.Now().Add(5 * time.Second)
	for gauge.Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if v := gauge.Value(); v != 0 {
		t.Errorf("workers gauge = %d after farm shutdown, want 0", v)
	}
}
