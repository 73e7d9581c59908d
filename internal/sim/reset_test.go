package sim_test

import (
	"reflect"
	"testing"

	"dynvote/internal/algset"
	"dynvote/internal/core"
	"dynvote/internal/proc"
	"dynvote/internal/rng"
	"dynvote/internal/sim"
)

// The reset lifecycle contract: Driver.Reset rewinds a driver to the
// state NewDriver would produce, so a run on a reset driver is
// bit-identical to the same run on a fresh one. These tests execute
// the same seed sequence three ways — fresh driver per run, one driver
// reset between runs, and alternating fresh/reset — and require the
// RunResult streams to match exactly, for every algorithm in the
// study. The crash/recover variant additionally proves that snapshot
// state captured at crash time cannot leak across a reset.

// resetSeeds derives n per-run sources. Sources are stateful, so each
// stream (fresh, reused, alternating) derives its own instances; the
// identical labels guarantee identical draw sequences.
func resetSeeds(n int) []*rng.Source {
	root := rng.New(977)
	out := make([]*rng.Source, n)
	for i := range out {
		out[i] = root.ChildLabel("reset-test", int64(i))
	}
	return out
}

// runFresh executes one run per seed, each on a brand-new driver.
func runFresh(t *testing.T, f core.Factory, cfg sim.Config, n int) []sim.RunResult {
	t.Helper()
	seeds := resetSeeds(n)
	out := make([]sim.RunResult, len(seeds))
	for i, s := range seeds {
		r, err := sim.NewDriver(f, cfg, s).Run()
		if err != nil {
			t.Fatalf("%s fresh run %d: %v", f.Name, i, err)
		}
		out[i] = r
	}
	return out
}

// runReused executes one run per seed on a single driver, reset
// between runs.
func runReused(t *testing.T, f core.Factory, cfg sim.Config, n int) []sim.RunResult {
	t.Helper()
	seeds := resetSeeds(n)
	out := make([]sim.RunResult, len(seeds))
	var d *sim.Driver
	for i, s := range seeds {
		if d == nil {
			d = sim.NewDriver(f, cfg, s)
		} else {
			d.Reset(s)
		}
		r, err := d.Run()
		if err != nil {
			t.Fatalf("%s reused run %d: %v", f.Name, i, err)
		}
		out[i] = r
	}
	return out
}

// runAlternating interleaves the two lifecycles: even runs construct a
// fresh driver, odd runs reset the previous one. Any state a reset
// failed to clear would desynchronize the stream from the first odd
// run onward.
func runAlternating(t *testing.T, f core.Factory, cfg sim.Config, n int) []sim.RunResult {
	t.Helper()
	seeds := resetSeeds(n)
	out := make([]sim.RunResult, len(seeds))
	var d *sim.Driver
	for i, s := range seeds {
		if i%2 == 0 {
			d = sim.NewDriver(f, cfg, s)
		} else {
			d.Reset(s)
		}
		r, err := d.Run()
		if err != nil {
			t.Fatalf("%s alternating run %d: %v", f.Name, i, err)
		}
		out[i] = r
	}
	return out
}

func checkStreams(t *testing.T, f core.Factory, cfg sim.Config, n int) {
	t.Helper()
	fresh := runFresh(t, f, cfg, n)
	for mode, results := range map[string][]sim.RunResult{
		"reused":      runReused(t, f, cfg, n),
		"alternating": runAlternating(t, f, cfg, n),
	} {
		for i := range fresh {
			if !reflect.DeepEqual(fresh[i], results[i]) {
				t.Errorf("%s run %d: %s driver diverges from fresh\nfresh:  %+v\n%s: %+v",
					f.Name, i, mode, fresh[i], mode, results[i])
			}
		}
	}
}

// TestResetVsFreshGolden proves reset-vs-fresh equivalence for every
// registered algorithm under the plain fresh-start configuration.
func TestResetVsFreshGolden(t *testing.T) {
	cfg := sim.Config{Procs: 16, Changes: 5, MeanRounds: 2, CheckSafety: true}
	for _, f := range algset.All() {
		checkStreams(t, f, cfg, 8)
	}
}

// TestResetVsFreshGoldenCrashRecover repeats the equivalence check
// with a crash-and-recover plan in every run. This is the test that
// keeps Cluster.Reset honest about snapshots: crashing captures the
// victim's durable state, and a reset that failed to discard it would
// let one run's stable storage resurface in the next.
func TestResetVsFreshGoldenCrashRecover(t *testing.T) {
	cfg := sim.Config{
		Procs:      16,
		Changes:    6,
		MeanRounds: 2,
		Crash:      &sim.CrashPlan{AfterChanges: 2, Process: proc.None, RecoverAfter: 2},
	}
	for _, f := range algset.All() {
		checkStreams(t, f, cfg, 6)
	}
}

// TestResetVsFreshGoldenPermanentCrash covers the permanent-crash arm:
// the run ends with a process still crashed and a snapshot still held,
// so the subsequent reset must roll back crash state it would never
// otherwise revisit.
func TestResetVsFreshGoldenPermanentCrash(t *testing.T) {
	cfg := sim.Config{
		Procs:      16,
		Changes:    5,
		MeanRounds: 2,
		Crash:      &sim.CrashPlan{AfterChanges: 1, Process: 3},
	}
	for _, f := range algset.All() {
		checkStreams(t, f, cfg, 6)
	}
}

// TestResetVsFreshGoldenSchedules covers the non-geometric change
// timings of the §5.1 timing study, whose runs share one driver per
// cell: a reset must leave the schedule's round count and burst draws
// where a fresh driver starts them.
func TestResetVsFreshGoldenSchedules(t *testing.T) {
	for _, schedule := range []sim.Schedule{
		sim.PeriodicSchedule{Every: 2},
		sim.ClusteredSchedule{MeanRounds: 8, BurstSize: 3},
	} {
		cfg := sim.Config{Procs: 16, Changes: 6, MeanRounds: 2, CheckSafety: true, Schedule: schedule}
		for _, f := range algset.All() {
			checkStreams(t, f, cfg, 6)
		}
	}
}
