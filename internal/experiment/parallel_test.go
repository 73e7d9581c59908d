package experiment_test

import (
	"reflect"
	"testing"

	"dynvote/internal/algset"
	"dynvote/internal/experiment"
)

// The parallelism contract: however many workers run, RunCase, RunPaired
// and RunSweep produce results bit-identical to sequential execution.
// Per-run sources depend on the run alone and aggregates merge in run
// order, so scheduling must be invisible.

func runAllCases(t *testing.T, mode experiment.Mode) map[string]experiment.CaseResult {
	t.Helper()
	out := make(map[string]experiment.CaseResult)
	for _, f := range algset.All() {
		res, err := experiment.RunCase(experiment.CaseSpec{
			Factory:    f,
			Procs:      24,
			Changes:    4,
			MeanRounds: 2,
			Runs:       20,
			Mode:       mode,
			Seed:       42,
		})
		if err != nil {
			t.Fatalf("%s %s: %v", f.Name, mode, err)
		}
		out[f.Name] = res
	}
	return out
}

// TestRunCaseParallelDeterminism asserts the golden contract for every
// registered algorithm, both modes, across several worker counts.
func TestRunCaseParallelDeterminism(t *testing.T) {
	defer experiment.SetParallelism(0)

	for _, mode := range []experiment.Mode{experiment.FreshStart, experiment.Cascading} {
		experiment.SetParallelism(1)
		sequential := runAllCases(t, mode)

		for _, workers := range []int{2, 5} {
			experiment.SetParallelism(workers)
			parallel := runAllCases(t, mode)
			for name, seq := range sequential {
				if !reflect.DeepEqual(seq, parallel[name]) {
					t.Errorf("%s %s: %d-worker result differs from sequential\nseq: %+v\npar: %+v",
						name, mode, workers, seq, parallel[name])
				}
			}
		}
	}
}

// TestRunPairedParallelDeterminism asserts the same contract for the
// paired comparison, whose two arms must stay on one worker.
func TestRunPairedParallelDeterminism(t *testing.T) {
	defer experiment.SetParallelism(0)
	ykdF, err := algset.ByName("ykd")
	if err != nil {
		t.Fatal(err)
	}
	dflsF, err := algset.ByName("dfls")
	if err != nil {
		t.Fatal(err)
	}
	spec := experiment.CaseSpec{
		Procs: 24, Changes: 4, MeanRounds: 2, Runs: 20,
		Mode: experiment.FreshStart, Seed: 42,
	}

	experiment.SetParallelism(1)
	sequential, err := experiment.RunPaired(ykdF, dflsF, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		experiment.SetParallelism(workers)
		parallel, err := experiment.RunPaired(ykdF, dflsF, spec)
		if err != nil {
			t.Fatal(err)
		}
		if sequential != parallel {
			t.Errorf("%d workers: paired result differs: seq %+v, par %+v",
				workers, sequential, parallel)
		}
	}
}

// TestRunSweepParallelDeterminism covers the sweep: a small
// two-algorithm sweep, in both modes, must give the same series and
// the same CSV bytes at 1, 2 and 8 workers.
func TestRunSweepParallelDeterminism(t *testing.T) {
	defer experiment.SetParallelism(0)
	for _, mode := range []experiment.Mode{experiment.FreshStart, experiment.Cascading} {
		spec := experiment.SweepSpec{
			Factories: algset.All()[:2],
			Procs:     24,
			Changes:   4,
			Rates:     []float64{0, 3},
			Runs:      15,
			Mode:      mode,
			Seed:      7,
		}
		var (
			first []experiment.Series
			csv   string
		)
		for _, workers := range []int{1, 2, 8} {
			experiment.SetParallelism(workers)
			series, err := experiment.RunSweep(spec)
			if err != nil {
				t.Fatal(err)
			}
			got := experiment.RenderAvailabilityCSV(spec, series) +
				experiment.RenderAmbiguityCSV(spec, series, true) +
				experiment.RenderAmbiguityCSV(spec, series, false)
			if first == nil {
				first, csv = series, got
				continue
			}
			if !reflect.DeepEqual(first, series) {
				t.Errorf("%s: %d-worker sweep differs from sequential:\nseq: %+v\npar: %+v", mode, workers, first, series)
			}
			if got != csv {
				t.Errorf("%s: %d-worker CSV bytes differ from sequential:\nseq:\n%s\npar:\n%s", mode, workers, csv, got)
			}
		}
	}
}
