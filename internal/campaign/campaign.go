// Package campaign is the engine behind the repository's trial-by-fire
// (thesis §2.2) at machine scale: it shards a long cascading soak's
// connectivity-change budget into independent chains per algorithm and
// schedules algorithms × chains across the experiment layer's shared
// worker pool, merging per-chain statistics back in chain order.
//
// The thesis's safety campaign replays 1,310,000 connectivity changes
// through one cascading chain per algorithm. A single chain is
// inherently sequential — every run continues from the previous run's
// state — but the campaign's purpose is statistical coverage, not one
// unbroken history: K shorter cascading chains seeded independently
// cover the same number of changes, preserve the cascading property
// inside every chain (algorithms carry ambiguous sessions and shrunken
// primaries across each chain's runs), and multiply the turbulent
// healing transitions the serial campaign only sees between segments.
// Each chain draws its randomness from a source derived purely from
// (rootSeed, algorithm, chain index), so per-chain results are
// bit-identical regardless of how many workers execute the campaign or
// in which order chains are scheduled.
package campaign

import (
	"fmt"
	"sync/atomic"
	"time"

	"dynvote/internal/core"
	"dynvote/internal/experiment"
	"dynvote/internal/metrics"
	"dynvote/internal/rng"
	"dynvote/internal/sim"
	"dynvote/internal/trace"
)

// Config parameterizes one campaign.
type Config struct {
	// Factories lists the algorithms to subject to the campaign, each
	// of which receives the full Changes budget.
	Factories []core.Factory
	// Procs is the number of simulated processes.
	Procs int
	// Changes is the total connectivity-change budget per algorithm,
	// split across Chains cascading chains.
	Changes int
	// Segment is the number of changes injected per cascading run
	// (runs cascade within a chain, healing between them).
	Segment int
	// Rate is the mean number of message rounds between changes.
	Rate float64
	// Seed is the campaign's root seed; see chainSource for how chain
	// streams derive from it.
	Seed int64
	// Chains is the number of independent cascading chains per
	// algorithm. 0 or 1 runs the historical single-chain soak.
	Chains int
	// TraceRetain is the capacity of the trace ring dumped when a chain
	// trips the checker; 0 disables tracing. Chains run untraced: the
	// ring is attached only to the replay of a failed chain.
	TraceRetain int
	// ProgressEvery throttles Progress callbacks to at most one per
	// chain per interval; 0 disables progress entirely.
	ProgressEvery time.Duration
	// Progress, when non-nil, receives per-chain progress updates. The
	// Merge serializes all hook invocations, so a Progress/
	// AlgorithmDone pair never runs concurrently with another.
	Progress func(ProgressUpdate)
	// AlgorithmDone, when non-nil, fires as soon as the last chain of
	// an algorithm completes, with the algorithm's merged result. With
	// one worker and one chain this reproduces the serial soak's
	// "progress…, PASSED" per-algorithm output ordering.
	AlgorithmDone func(AlgorithmResult)
	// Abort, when non-nil and set, drains the campaign cooperatively:
	// every chain stops at its next run boundary without error, and the
	// merged Result carries the partial statistics with Aborted set.
	// This is the SIGINT path — distinct from the internal
	// violation-triggered abort, which surfaces as an error.
	Abort *atomic.Bool
}

func (c Config) withDefaults() Config {
	if c.Chains <= 0 {
		c.Chains = 1
	}
	if c.Segment <= 0 {
		c.Segment = 12
	}
	return c
}

// ProgressUpdate is one chain's progress snapshot.
type ProgressUpdate struct {
	Algorithm     string
	Chain, Chains int // Chain is 0-based
	Injected      int // changes injected by this chain so far
	Budget        int // this chain's change budget
	Runs, Formed  int
	Assertions    int64
	Elapsed       time.Duration // since this chain started
}

// ChainStats is one chain's contribution to the campaign. Changes,
// Runs, Formed and Assertions are deterministic — bit-identical for a
// given (seed, chains) at any worker count, local or farmed — and are
// what golden fingerprints pin. Wall and Requeued are execution
// accounting: wall-clock time varies run to run, and Requeued counts
// how many times a farm coordinator re-issued the chain after worker
// loss or a straggler deadline (always zero in local runs).
type ChainStats struct {
	Algorithm  string
	Chain      int
	Changes    int
	Runs       int
	Formed     int // runs that ended with a primary component
	Assertions int64
	Wall       time.Duration
	Requeued   int
}

// AlgorithmResult merges one algorithm's chains in chain order.
type AlgorithmResult struct {
	Algorithm  string
	Chains     []ChainStats
	Changes    int
	Runs       int
	Formed     int
	Assertions int64
	// Elapsed is the wall time from the algorithm's first chain
	// starting to its last chain finishing, 0 when some chain never
	// finished (not deterministic).
	Elapsed time.Duration
}

// AvailabilityPercent returns the percentage of the algorithm's runs
// that ended with a primary component.
func (a AlgorithmResult) AvailabilityPercent() float64 {
	if a.Runs == 0 {
		return 0
	}
	return 100 * float64(a.Formed) / float64(a.Runs)
}

// Result is the campaign's chain-ordered merge.
type Result struct {
	Algorithms []AlgorithmResult
	// Violations lists every chain that tripped the checker, in
	// (algorithm, chain) order. The campaign aborts at the first
	// violation, so later chains may have stopped early.
	Violations []*ChainError
	// Aborted marks a campaign cut short by an external drain (SIGINT,
	// farm coordinator shutdown) rather than by a violation: the merged
	// statistics are a clean partial prefix, not a full budget.
	Aborted bool
	Elapsed time.Duration
	// Workers is how many workers ran chains at once: Run's count, or
	// the farm's peak when its caller sets it.
	Workers int
}

// ChainError wraps a safety violation (or driver failure) with the
// chain that produced it. Unwrap exposes the underlying error, so a
// sim.ViolationError's retained trace dump survives the wrapping.
type ChainError struct {
	Algorithm string
	Chain     int
	Chains    int
	Changes   int // injected by the chain before the failure
	Err       error
}

// Error renders the chain coordinates and the underlying failure. A
// single-chain campaign omits the chain coordinates, matching the
// historical serial soak's error text exactly.
func (e *ChainError) Error() string {
	if e.Chains <= 1 {
		return fmt.Sprintf("%s: INCONSISTENCY or failure after %d changes: %v",
			e.Algorithm, e.Changes, e.Err)
	}
	return fmt.Sprintf("%s chain %d/%d: INCONSISTENCY or failure after %d changes: %v",
		e.Algorithm, e.Chain+1, e.Chains, e.Changes, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *ChainError) Unwrap() error { return e.Err }

// chainSource derives a chain's deterministic random source. A
// single-chain campaign replays the historical serial seeding —
// rng.New(seed) — exactly, which keeps `-chains 1` campaigns
// bit-identical to the pre-campaign serial soak. Sharded campaigns
// label each chain's stream with (seed, algorithm, chain index) alone:
// no chain's draws depend on scheduling, worker count, or any other
// (algorithm, chain) pair.
func chainSource(seed int64, alg string, chain, chains int) *rng.Source {
	if chains == 1 {
		return rng.New(seed)
	}
	return rng.New(seed).ChildLabel("campaign/"+alg, seed, int64(chain))
}

// chainBudget splits the per-algorithm change budget: every chain gets
// total/chains changes, the first total%chains chains one extra.
func chainBudget(total, chains, chain int) int {
	budget := total / chains
	if chain < total%chains {
		budget++
	}
	return budget
}

// ErrAborted marks chains cut short cooperatively — by another chain's
// violation or an external drain; it never surfaces as a campaign
// error. The farm worker reports it to distinguish an aborted chain
// from a completed one.
var ErrAborted = fmt.Errorf("campaign: chain aborted")

// errReplayDiverged marks a failed chain whose traced replay failed otherwise.
var errReplayDiverged = fmt.Errorf("campaign: traced replay diverged from the untraced pass")

// Run executes the campaign: len(Factories) × Chains independent
// cascading chains, scheduled across the experiment worker pool
// (experiment.SetParallelism bounds concurrency; 1 forces fully
// sequential execution in (algorithm, chain) order). The returned
// Result carries per-chain and merged statistics that are identical
// for any worker count; the error is the first violation in chain
// order, nil when every chain passed. A violation in any chain aborts
// the whole campaign: running chains stop at their next run boundary.
func Run(cfg Config) (*Result, error) {
	m := NewMerge(cfg)
	cfg = m.Config()
	var abort atomic.Bool
	experiment.ParallelWorkers(m.Jobs(), func(_, job int) {
		m.Start(job)
		var stat ChainStats
		err := runChain(&cfg, cfg.Factories[job/cfg.Chains], job%cfg.Chains, &stat, &abort, m)
		if err != nil && err != ErrAborted {
			abort.Store(true)
		}
		m.Add(job, stat, err)
	})
	res, err := m.Result(cfg.Abort != nil && cfg.Abort.Load())
	// ParallelWorkers starts no more workers than there are jobs.
	res.Workers = min(experiment.Parallelism(), m.Jobs())
	return res, err
}

// RunChain executes a single (algorithm, chain) cell of the campaign
// in isolation, deterministically: the chain draws the same random
// stream it would inside Run, so the returned ChainStats are
// bit-identical to that chain's slot in a local campaign. abort, when
// non-nil, stops the chain cooperatively at its next run boundary
// (returning ErrAborted); the farm worker wires it to the
// coordinator's abort frame. Partial statistics accumulated before an
// abort or violation are returned alongside the error. As in Run, a
// failed chain is replayed with the trace ring; no hooks fire.
func RunChain(cfg Config, alg, chain int, abort *atomic.Bool) (ChainStats, error) {
	cfg = cfg.withDefaults()
	var stat ChainStats
	err := runChain(&cfg, cfg.Factories[alg], chain, &stat, abort, nil)
	return stat, err
}

// runChain walks a chain untraced. When it fails and TraceRetain is set,
// the chain, a pure function of (seed, algorithm, chain), is replayed
// with the ring attached; stat keeps the untraced walk's counts, and
// a replay that does not fail the same way is reported as a divergence.
func runChain(cfg *Config, f core.Factory, chain int, stat *ChainStats,
	abort *atomic.Bool, m *Merge) error {
	err := walkChain(cfg, f, chain, stat, abort, m, false)
	first, failed := err.(*ChainError)
	if !failed || cfg.TraceRetain <= 0 {
		return err
	}
	err = walkChain(cfg, f, chain, new(ChainStats), nil, nil, true)
	if replay, ok := err.(*ChainError); ok && replay.Changes == first.Changes && checkerText(replay.Err) == first.Err.Error() {
		return replay
	}
	first.Err = fmt.Errorf("%w: untraced: %v; traced replay: %v", errReplayDiverged, first.Err, err)
	return first
}

// checkerText is a failure's text without the trace a traced walk attaches.
func checkerText(err error) string {
	if ve, ok := err.(*sim.ViolationError); ok {
		err = ve.Err
	}
	return err.Error()
}

// walkChain executes one cascading chain to its budget: heal, run a
// segment of changes, repeat — the §2.2 loop — with the checker on
// after every message round. Progress fires only with a Merge to
// serialize it. A traced walk attaches the ring and ignores both abort
// flags: it replays a failure that has already happened.
func walkChain(cfg *Config, f core.Factory, chain int, stat *ChainStats,
	abort *atomic.Bool, m *Merge, traced bool) error {
	budget := chainBudget(cfg.Changes, cfg.Chains, chain)
	stat.Algorithm, stat.Chain = f.Name, chain

	reg := metrics.NewRegistry()
	simCfg := sim.Config{
		Procs:       cfg.Procs,
		Changes:     cfg.Segment,
		MeanRounds:  cfg.Rate,
		CheckSafety: true,
		Metrics:     reg,
	}
	if traced {
		simCfg.Trace = trace.NewRecorder(cfg.TraceRetain)
		// Keep structural events (views, connectivity changes) intact
		// but thin the delivery firehose so the retained window spans
		// more history per byte.
		simCfg.TraceSampleEvery = 8
	}
	d := sim.NewDriver(f, simCfg, chainSource(cfg.Seed, f.Name, chain, cfg.Chains))
	assertions := reg.Counter("sim_checker_assertions_total", "")

	start := time.Now()
	lastReport := start
	defer func() { stat.Wall = time.Since(start) }()
	for stat.Changes < budget {
		if !traced && (abort != nil && abort.Load() || cfg.Abort != nil && cfg.Abort.Load()) {
			return ErrAborted
		}
		d.Heal()
		res, err := d.Run()
		stat.Assertions = assertions.Value()
		if err != nil {
			return &ChainError{Algorithm: f.Name, Chain: chain, Chains: cfg.Chains, Changes: stat.Changes, Err: err}
		}
		stat.Changes += res.ChangesInjected
		stat.Runs++
		if res.PrimaryFormed {
			stat.Formed++
		}
		if m != nil && cfg.Progress != nil && cfg.ProgressEvery > 0 && time.Since(lastReport) >= cfg.ProgressEvery {
			lastReport = time.Now()
			u := ProgressUpdate{Algorithm: f.Name, Chain: chain, Chains: cfg.Chains,
				Injected: stat.Changes, Budget: budget, Runs: stat.Runs, Formed: stat.Formed,
				Assertions: stat.Assertions, Elapsed: time.Since(start)}
			m.Locked(func(int) { cfg.Progress(u) })
		}
	}
	return nil
}
