// Package experiment defines and runs the measurement campaigns of
// thesis Chapter 4: availability sweeps (fresh-start and cascading),
// ambiguous-session measurements, the 32/48/64 scaling check, the
// paired YKD-vs-DFLS comparison and the message-size accounting. Every
// figure of the thesis maps to one FigureSpec here; cmd/figures and
// the repository benchmarks are thin layers over this package.
package experiment

import (
	"fmt"

	"dynvote/internal/core"
	"dynvote/internal/metrics"
	"dynvote/internal/rng"
	"dynvote/internal/sim"
	"dynvote/internal/stats"
)

// Mode distinguishes the two test styles of §4.1.
type Mode int

const (
	// FreshStart: each run begins brand-new in the original state.
	FreshStart Mode = iota + 1
	// Cascading: each run begins where the previous one ended.
	Cascading
)

// String returns "fresh-start" or "cascading".
func (m Mode) String() string {
	switch m {
	case FreshStart:
		return "fresh-start"
	case Cascading:
		return "cascading"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// CaseSpec identifies one measurement cell: an algorithm, a number of
// connectivity changes, and a change rate, simulated over Runs
// randomized runs (the thesis uses 1000 runs per case).
type CaseSpec struct {
	Factory    core.Factory
	Procs      int
	Changes    int
	MeanRounds float64
	Runs       int
	Mode       Mode
	Seed       int64
	// MeasureSizes additionally collects the §3.4 message-size maxima.
	MeasureSizes bool
	// CheckSafety runs the invariant checker during every run.
	CheckSafety bool
	// Metrics, when non-nil, instruments every simulation driver the
	// case spawns. The same registry may be shared across cases; the
	// counters aggregate.
	Metrics *metrics.Registry
}

// CaseResult aggregates a case's runs.
type CaseResult struct {
	Algorithm    string
	MeanRounds   float64
	Availability stats.Availability
	// Stable histograms ambiguous sessions retained at the end of each
	// run (Figure 4-7).
	Stable stats.Histogram
	// InProgress histograms ambiguous sessions held at each
	// connectivity change (Figure 4-8).
	InProgress stats.Histogram
	// Reform histograms the rounds needed to re-establish a primary
	// after the last change of each run (successful runs only).
	Reform stats.Histogram
	// NeverReformed counts runs where no primary was re-established.
	NeverReformed int
	// Sizes carries message-size maxima when MeasureSizes was set.
	Sizes stats.MaxTracker
}

// runSeed derives the per-run random source. It deliberately does NOT
// depend on the algorithm: the thesis tests every algorithm against
// the same random sequence (§4.1).
func runSeed(root *rng.Source, spec CaseSpec, run int) *rng.Source {
	return root.ChildLabel("run",
		int64(spec.Procs), int64(spec.Changes),
		int64(spec.MeanRounds*1e6), int64(spec.Mode), int64(run))
}

func (spec CaseSpec) config() sim.Config {
	return sim.Config{
		Procs:        spec.Procs,
		Changes:      spec.Changes,
		MeanRounds:   spec.MeanRounds,
		MeasureSizes: spec.MeasureSizes,
		CheckSafety:  spec.CheckSafety,
		Metrics:      spec.Metrics,
	}
}

// record folds one run's result into the aggregate. Recording in run
// order is part of the determinism contract: histograms and trackers
// accumulate identically no matter which worker produced the run.
func (res *CaseResult) record(r sim.RunResult) {
	res.Availability.Record(r.PrimaryFormed)
	res.Stable.Add(r.AmbiguousAtEnd)
	for _, n := range r.AmbiguousAtChanges {
		res.InProgress.Add(n)
	}
	if r.ReformRounds >= 0 {
		res.Reform.Add(r.ReformRounds)
	} else {
		res.NeverReformed++
	}
	res.Sizes.Record(r.MaxMessageBytes, r.MaxRoundBytes)
}

// RunCase executes one measurement cell.
func RunCase(spec CaseSpec) (CaseResult, error) {
	res, _, err := runCases([]cell{caseCell(spec)}, nil)
	return res[0], err
}

// PairedResult reports a run-by-run comparison of two algorithms on
// identical random sequences — the measurement behind the "YKD
// succeeds where DFLS does not in ≈3% of runs" claim (§4.1).
type PairedResult struct {
	Both       int // both formed a primary
	OnlyFirst  int // first formed, second did not
	OnlySecond int
	Neither    int
	Runs       int
}

// FirstAdvantagePercent returns the percentage of runs only the first
// algorithm succeeded in.
func (p PairedResult) FirstAdvantagePercent() float64 {
	if p.Runs == 0 {
		return 0
	}
	return 100 * float64(p.OnlyFirst) / float64(p.Runs)
}

// RunPaired runs two algorithms over the same random sequences and
// tallies run-by-run agreement. The spec's Factory field is ignored.
//
// Runs are spread over ParallelWorkers like fresh-start RunCase; both
// arms of one run stay on the same worker (they are a single
// comparison), and the tally is merged in run order, identical to
// sequential execution.
func RunPaired(first, second core.Factory, spec CaseSpec) (PairedResult, error) {
	var out PairedResult
	root := rng.New(spec.Seed)
	factories := [2]core.Factory{first, second}
	type outcome struct {
		formed [2]bool
		err    error
	}
	outcomes := make([]outcome, spec.Runs)
	// One driver pair per worker, reset between runs — the same reuse
	// as fresh-start RunCase, kept per arm so each algorithm's stack is
	// recycled with itself.
	drivers := make([][2]*sim.Driver, workerCount(spec.Runs))
	ParallelWorkers(spec.Runs, func(worker, run int) {
		o := &outcomes[run]
		for i, f := range factories {
			// runSeed ignores the factory: both arms replay the same
			// draws, each from its own source instance.
			src := runSeed(root, spec, run)
			d := drivers[worker][i]
			if d == nil {
				d = sim.NewDriver(f, spec.config(), src)
				drivers[worker][i] = d
			} else {
				d.Reset(src)
			}
			r, err := d.Run()
			if err != nil {
				o.err = fmt.Errorf("%s paired run %d: %w", f.Name, run, err)
				return
			}
			o.formed[i] = r.PrimaryFormed
		}
	})
	for _, o := range outcomes {
		if o.err != nil {
			return out, o.err
		}
		out.Runs++
		switch {
		case o.formed[0] && o.formed[1]:
			out.Both++
		case o.formed[0]:
			out.OnlyFirst++
		case o.formed[1]:
			out.OnlySecond++
		default:
			out.Neither++
		}
	}
	return out, nil
}
