package experiment

import (
	"fmt"
	"strings"

	"dynvote/internal/algset"
	"dynvote/internal/proc"
	"dynvote/internal/sim"
)

// This file implements the thesis's §5.1 future-work studies:
// availability when a process from the original view crashes, and
// availability under probability functions other than the uniform
// geometric model.

// CrashStudySpec parameterizes the crash experiment: the Figure 4-2
// style workload with one process fail-stopping partway through every
// run.
type CrashStudySpec struct {
	Procs      int
	Changes    int
	MeanRounds float64
	Runs       int
	Seed       int64
	// Victim is the process to crash; proc.None crashes a random live
	// process per run. Crashing the lexically smallest process (ID 0)
	// additionally knocks out the tie-breaker of dynamic linear
	// voting.
	Victim proc.ID
	// AfterChanges positions the crash within the change sequence.
	AfterChanges int
}

// CrashStudyRow is one algorithm's outcome with and without the crash.
type CrashStudyRow struct {
	Algorithm string
	Baseline  float64 // availability % without crashes
	Crashed   float64 // availability % with the crash plan
}

// RunCrashStudy measures every availability algorithm with and without
// the crash, on identical random sequences.
func RunCrashStudy(spec CrashStudySpec) ([]CrashStudyRow, error) {
	crash := &sim.CrashPlan{AfterChanges: spec.AfterChanges, Process: spec.Victim}
	res, _, err := runCases(availabilityCells(CaseSpec{
		Procs: spec.Procs, Changes: spec.Changes, MeanRounds: spec.MeanRounds, Runs: spec.Runs, Seed: spec.Seed,
	}, nil, func(cfg *sim.Config) { cfg.Crash = crash }), nil)
	if err != nil {
		return nil, fmt.Errorf("crash study: %w", err)
	}
	rows := make([]CrashStudyRow, 0, len(res)/2)
	for i := 0; i < len(res); i += 2 {
		rows = append(rows, CrashStudyRow{
			Algorithm: res[i].Algorithm,
			Baseline:  res[i].Availability.Percent(),
			Crashed:   res[i+1].Availability.Percent(),
		})
	}
	return rows, nil
}

// availabilityCells returns one fresh-start cell per availability
// algorithm and driver variant, algorithm-major; a nil variant runs
// the spec's configuration as is. Every cell replays the same random
// sequences.
func availabilityCells(spec CaseSpec, variants ...func(*sim.Config)) []cell {
	var cells []cell
	spec.Mode = FreshStart
	for _, f := range algset.Availability() {
		spec.Factory = f
		for _, vary := range variants {
			c := caseCell(spec)
			if vary != nil {
				vary(&c.cfg)
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// RenderCrashStudy renders the crash study as a text table.
func RenderCrashStudy(spec CrashStudySpec, rows []CrashStudyRow) string {
	var b strings.Builder
	victim := "random process"
	if spec.Victim != proc.None {
		victim = spec.Victim.String() + " (the lexical tie-breaker)"
	}
	fmt.Fprintf(&b, "Crash study (§5.1): %d procs, %d changes at rate %.1f, crash of %s after change %d\n\n",
		spec.Procs, spec.Changes, spec.MeanRounds, victim, spec.AfterChanges)
	fmt.Fprintf(&b, "%-16s %12s %12s %8s\n", "algorithm", "no crash", "with crash", "Δ")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-16s %11.1f%% %11.1f%% %+7.1f\n",
			row.Algorithm, row.Baseline, row.Crashed, row.Crashed-row.Baseline)
	}
	return b.String()
}

// TimingStudySpec parameterizes the change-timing study: the same
// workload under the three Schedule models, normalized to comparable
// change rates.
type TimingStudySpec struct {
	Procs   int
	Changes int
	Runs    int
	Seed    int64
	// MeanRounds is the target mean rounds between changes for the
	// geometric and clustered models, and the period for the periodic
	// one.
	MeanRounds float64
	// BurstSize is the clustered model's burst (default 3).
	BurstSize int
}

// TimingStudyRow is one (algorithm, schedule) availability cell.
type TimingStudyRow struct {
	Algorithm string
	// Availability % per schedule: geometric, periodic, clustered.
	Geometric, Periodic, Clustered float64
}

// RunTimingStudy measures every availability algorithm under the three
// timing models.
func RunTimingStudy(spec TimingStudySpec) ([]TimingStudyRow, error) {
	if spec.BurstSize == 0 {
		spec.BurstSize = 3
	}
	mean, burst := spec.MeanRounds, spec.BurstSize
	res, _, err := runCases(availabilityCells(CaseSpec{
		Procs: spec.Procs, Changes: spec.Changes, MeanRounds: mean, Runs: spec.Runs, Seed: spec.Seed,
	},
		func(cfg *sim.Config) { cfg.Schedule = sim.GeometricSchedule{MeanRounds: mean} },
		func(cfg *sim.Config) { cfg.Schedule = sim.PeriodicSchedule{Every: int(mean + 0.5)} },
		// One cluster of BurstSize changes per BurstSize×mean rounds
		// keeps the long-run change rate equal.
		func(cfg *sim.Config) {
			cfg.Schedule = sim.ClusteredSchedule{MeanRounds: mean*float64(burst) + float64(burst-1), BurstSize: burst}
		},
	), nil)
	if err != nil {
		return nil, fmt.Errorf("timing study: %w", err)
	}
	rows := make([]TimingStudyRow, 0, len(res)/3)
	for i := 0; i < len(res); i += 3 {
		rows = append(rows, TimingStudyRow{
			Algorithm: res[i].Algorithm,
			Geometric: res[i].Availability.Percent(),
			Periodic:  res[i+1].Availability.Percent(),
			Clustered: res[i+2].Availability.Percent(),
		})
	}
	return rows, nil
}

// RenderTimingStudy renders the timing study as a text table.
func RenderTimingStudy(spec TimingStudySpec, rows []TimingStudyRow) string {
	if spec.BurstSize == 0 {
		spec.BurstSize = 3
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Change-timing study (§5.1): %d procs, %d changes, mean rate %.1f rounds, cluster size %d\n\n",
		spec.Procs, spec.Changes, spec.MeanRounds, spec.BurstSize)
	fmt.Fprintf(&b, "%-16s %12s %12s %12s\n", "algorithm", "geometric", "periodic", "clustered")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-16s %11.1f%% %11.1f%% %11.1f%%\n",
			row.Algorithm, row.Geometric, row.Periodic, row.Clustered)
	}
	return b.String()
}

// LatencyStudySpec parameterizes the re-formation latency study: how
// many message rounds each algorithm needs to re-establish a primary
// once the turbulence ends. Availability percentages hide this — an
// algorithm can reach the same availability as another while taking
// several times longer to get there, which matters to any application
// waiting on the primary.
type LatencyStudySpec struct {
	Procs      int
	Changes    int
	MeanRounds float64
	Runs       int
	Seed       int64
}

// LatencyStudyRow is one algorithm's latency distribution.
type LatencyStudyRow struct {
	Algorithm string
	// MeanRounds is the average re-formation latency over runs that
	// re-formed.
	MeanRounds float64
	// MaxRounds is the worst observed latency.
	MaxRounds int
	// NeverPercent is the share of runs that never re-formed.
	NeverPercent float64
}

// RunLatencyStudy measures re-formation latency for every availability
// algorithm on identical random sequences.
func RunLatencyStudy(spec LatencyStudySpec) ([]LatencyStudyRow, error) {
	res, _, err := runCases(availabilityCells(CaseSpec{
		Procs: spec.Procs, Changes: spec.Changes, MeanRounds: spec.MeanRounds, Runs: spec.Runs, Seed: spec.Seed,
	}, nil), nil)
	if err != nil {
		return nil, err
	}
	rows := make([]LatencyStudyRow, 0, len(res))
	for _, r := range res {
		rows = append(rows, LatencyStudyRow{
			Algorithm:    r.Algorithm,
			MeanRounds:   r.Reform.Mean(),
			MaxRounds:    r.Reform.Max(),
			NeverPercent: 100 * float64(r.NeverReformed) / float64(spec.Runs),
		})
	}
	return rows, nil
}

// RenderLatencyStudy renders the latency study as a text table.
func RenderLatencyStudy(spec LatencyStudySpec, rows []LatencyStudyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Re-formation latency: %d procs, %d changes at rate %.1f — rounds to restore a primary after the last change\n\n",
		spec.Procs, spec.Changes, spec.MeanRounds)
	fmt.Fprintf(&b, "%-16s %12s %10s %12s\n", "algorithm", "mean rounds", "max", "never")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-16s %12.2f %10d %11.1f%%\n",
			row.Algorithm, row.MeanRounds, row.MaxRounds, row.NeverPercent)
	}
	return b.String()
}
