package campaign

import (
	"slices"
	"sync"
	"time"
)

// Merge turns chain outcomes into a campaign Result. Run and the farm
// coordinator feed it alike, which is what makes a farmed campaign's
// Result the local one at any worker count and in any completion
// order. Job j is chain j%Chains of algorithm j/Chains. One lock
// guards the job table and serializes every hook: Progress,
// AlgorithmDone and whatever Locked runs. A hook must not call back
// into the Merge.
type Merge struct {
	cfg   Config
	start time.Time

	mu       sync.Mutex
	stats    []ChainStats
	errs     []error
	seen     []bool
	left     []int // unmerged chains per algorithm
	algStart []time.Time
	elapsed  []time.Duration // per algorithm, set when its last chain merges
	merged   int
}

// NewMerge applies cfg's defaults and sizes the job table; the
// campaign's clock starts here.
func NewMerge(cfg Config) *Merge {
	cfg = cfg.withDefaults()
	algs, jobs := len(cfg.Factories), len(cfg.Factories)*cfg.Chains
	m := &Merge{
		cfg:      cfg,
		start:    time.Now(),
		stats:    make([]ChainStats, jobs),
		errs:     make([]error, jobs),
		seen:     make([]bool, jobs),
		left:     make([]int, algs),
		algStart: make([]time.Time, algs),
		elapsed:  make([]time.Duration, algs),
	}
	for alg := range m.left {
		m.left[alg] = cfg.Chains
	}
	return m
}

// Config returns the campaign configuration with its defaults applied.
func (m *Merge) Config() Config { return m.cfg }

// Jobs returns the number of (algorithm, chain) jobs.
func (m *Merge) Jobs() int { return len(m.seen) }

// Start records that job is running, and must precede its Add. An
// algorithm's clock starts with the first of its chains to start.
func (m *Merge) Start(job int) {
	m.mu.Lock()
	if alg := job / m.cfg.Chains; m.algStart[alg].IsZero() {
		m.algStart[alg] = time.Now()
	}
	m.mu.Unlock()
}

// Add merges job's outcome and reports whether it did: only the first
// Add for a job counts. err is nil for a clean chain, ErrAborted for
// one cut short, and otherwise the chain's failure, which is wrapped
// in a ChainError unless it is one. When an algorithm's last chain
// merges and none of its chains failed or aborted, AlgorithmDone
// fires with the same AlgorithmResult that Result will carry.
func (m *Merge) Add(job int, stat ChainStats, err error) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seen[job] {
		return false
	}
	alg, chain := job/m.cfg.Chains, job%m.cfg.Chains
	stat.Algorithm, stat.Chain = m.cfg.Factories[alg].Name, chain
	if _, ok := err.(*ChainError); !ok && err != nil && err != ErrAborted {
		err = &ChainError{Algorithm: stat.Algorithm, Chain: chain, Chains: m.cfg.Chains, Changes: stat.Changes, Err: err}
	}
	m.seen[job], m.stats[job], m.errs[job] = true, stat, err
	m.merged++
	if m.left[alg]--; m.left[alg] > 0 {
		return true
	}
	m.elapsed[alg] = time.Since(m.algStart[alg])
	lo, hi := alg*m.cfg.Chains, (alg+1)*m.cfg.Chains
	if m.cfg.AlgorithmDone != nil && !slices.ContainsFunc(m.errs[lo:hi], func(err error) bool { return err != nil }) {
		m.cfg.AlgorithmDone(m.algorithm(alg))
	}
	return true
}

// Merged reports whether job's outcome has been merged.
func (m *Merge) Merged(job int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seen[job]
}

// Done reports whether the campaign is over: every job merged, or a
// chain failed.
func (m *Merge) Done() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.merged == len(m.seen) || slices.ContainsFunc(m.errs, func(err error) bool { _, ok := err.(*ChainError); return ok })
}

// Locked runs f under the lock the hooks fire under, with the number
// of jobs merged so far.
func (m *Merge) Locked(f func(merged int)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f(m.merged)
}

// Result merges every job added so far: algorithms in order, each
// folding its chains in chain order, and the failures in (algorithm,
// chain) order, the first of which is returned as the error. aborted
// marks a campaign cut short by an external drain.
func (m *Merge) Result(aborted bool) (*Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	res := &Result{Aborted: aborted, Elapsed: time.Since(m.start)}
	for alg := range m.left {
		res.Algorithms = append(res.Algorithms, m.algorithm(alg))
	}
	var first error
	for _, err := range m.errs {
		if ce, ok := err.(*ChainError); ok {
			res.Violations = append(res.Violations, ce)
			if first == nil {
				first = ce
			}
		}
	}
	return res, first
}

// algorithm folds alg's chains in chain order.
func (m *Merge) algorithm(alg int) AlgorithmResult {
	lo, hi := alg*m.cfg.Chains, (alg+1)*m.cfg.Chains
	a := AlgorithmResult{Algorithm: m.cfg.Factories[alg].Name, Chains: slices.Clone(m.stats[lo:hi]), Elapsed: m.elapsed[alg]}
	for _, c := range a.Chains {
		a.Changes += c.Changes
		a.Runs += c.Runs
		a.Formed += c.Formed
		a.Assertions += c.Assertions
	}
	return a
}
