package experiment_test

import (
	"fmt"
	"testing"

	"dynvote/internal/experiment"
	"dynvote/internal/naive"
	"dynvote/internal/proc"
)

// Study goldens: the rendered tables of the §5.1 studies, the latency
// study and the N-scaling study at the seeds of extensions_test.go and
// scaling_test.go. The bytes were recorded when each study still ran
// its own loop — the crash and timing studies on a fresh driver per
// run — so they pin the flat job list, its driver reuse and its merge
// order to the results those loops gave, at every worker count.

var studyGoldens = []struct {
	name string
	run  func() (string, error)
	want string
}{
	{"crash", func() (string, error) {
		spec := experiment.CrashStudySpec{Procs: 16, Changes: 8, MeanRounds: 1.5, Runs: 60, Seed: 7, Victim: 0, AfterChanges: 2}
		rows, err := experiment.RunCrashStudy(spec)
		return experiment.RenderCrashStudy(spec, rows), err
	}, "Crash study (§5.1): 16 procs, 8 changes at rate 1.5, crash of p0 (the lexical tie-breaker) after change 2\n\nalgorithm            no crash   with crash        Δ\nykd                     80.0%        76.7%    -3.3\ndfls                    78.3%        71.7%    -6.7\n1-pending               48.3%        40.0%    -8.3\nmr1p                    73.3%        65.0%    -8.3\nsimple-majority         68.3%        58.3%   -10.0\n"},
	{"crash/random-victim", func() (string, error) {
		spec := experiment.CrashStudySpec{Procs: 8, Changes: 4, MeanRounds: 2, Runs: 10, Seed: 3, Victim: proc.None, AfterChanges: 1}
		rows, err := experiment.RunCrashStudy(spec)
		return experiment.RenderCrashStudy(spec, rows), err
	}, "Crash study (§5.1): 8 procs, 4 changes at rate 2.0, crash of random process after change 1\n\nalgorithm            no crash   with crash        Δ\nykd                    100.0%        70.0%   -30.0\ndfls                    90.0%        70.0%   -20.0\n1-pending               90.0%        60.0%   -30.0\nmr1p                    90.0%        70.0%   -20.0\nsimple-majority         80.0%        60.0%   -20.0\n"},
	{"timing", func() (string, error) {
		spec := experiment.TimingStudySpec{Procs: 16, Changes: 8, MeanRounds: 2, Runs: 40, Seed: 9}
		rows, err := experiment.RunTimingStudy(spec)
		return experiment.RenderTimingStudy(spec, rows), err
	}, "Change-timing study (§5.1): 16 procs, 8 changes, mean rate 2.0 rounds, cluster size 3\n\nalgorithm           geometric     periodic    clustered\nykd                     87.5%        85.0%        85.0%\ndfls                    87.5%        85.0%        77.5%\n1-pending               67.5%        35.0%        72.5%\nmr1p                    75.0%        77.5%        87.5%\nsimple-majority         67.5%        72.5%        77.5%\n"},
	{"latency", func() (string, error) {
		spec := experiment.LatencyStudySpec{Procs: 16, Changes: 8, MeanRounds: 2, Runs: 60, Seed: 5}
		rows, err := experiment.RunLatencyStudy(spec)
		return experiment.RenderLatencyStudy(spec, rows), err
	}, "Re-formation latency: 16 procs, 8 changes at rate 2.0 — rounds to restore a primary after the last change\n\nalgorithm         mean rounds        max        never\nykd                      1.48          2        13.3%\ndfls                     1.31          2         8.3%\n1-pending                1.45          2        33.3%\nmr1p                     2.76          4        25.0%\nsimple-majority          0.00          0        33.3%\n"},
	{"scaling", func() (string, error) {
		spec := experiment.ScalingStudySpec{Sizes: []int{8, 16}, Rates: []float64{2}, Changes: 2, Runs: 10}
		rows, err := experiment.RunScalingStudy(spec)
		return experiment.RenderScalingTable(spec, rows), err
	}, "N-scaling study: 2 fresh changes, 10 runs/case (ykd availability)\n\nprocs           rate=2     runs\n8                80.0%       10\n16               90.0%       10\n"},
}

func TestStudyGoldensParallelDeterminism(t *testing.T) {
	defer experiment.SetParallelism(0)
	for _, workers := range []int{1, 2, 8} {
		experiment.SetParallelism(workers)
		for _, g := range studyGoldens {
			got, err := g.run()
			if err != nil {
				t.Fatalf("%s at %d workers: %v", g.name, workers, err)
			}
			if got != g.want {
				t.Errorf("%s at %d workers moved:\n got  %q\n want %q", g.name, workers, got, g.want)
			}
		}
	}
}

// TestRunCaseErrorParallelDeterminism: a failing case reports the
// failure sequential execution meets first, whatever the worker count.
// naive declares two primaries in this workload; run 133 is the first
// to trip the checker.
func TestRunCaseErrorParallelDeterminism(t *testing.T) {
	defer experiment.SetParallelism(0)
	spec := experiment.CaseSpec{
		Factory: naive.Factory(), Procs: 16, Changes: 12, MeanRounds: 1.5,
		Runs: 300, Mode: experiment.FreshStart, Seed: 3, CheckSafety: true,
	}
	const want = "naive-no-agreement fresh run 133: sim: safety violation: two primary components declared: V17{p0,p2,p5,p8,p9,p10,p14,p15} and V16{p1,p3,p4,p6,p7,p11,p12,p13}"
	for _, workers := range []int{1, 2, 8} {
		experiment.SetParallelism(workers)
		_, err := experiment.RunCase(spec)
		if got := fmt.Sprint(err); got != want {
			t.Errorf("%d workers: error\n got  %q\n want %q", workers, got, want)
		}
	}
}
