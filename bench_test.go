// Package dynvote's repository-level benchmarks: one testing.B target
// per thesis table/figure, each regenerating (a reduced-resolution
// rendition of) the corresponding series. Full-resolution runs come
// from cmd/figures; these benches exist so `go test -bench=.` exercises
// every experiment end-to-end and reports its cost.
//
// The printed series are emitted once per benchmark (on the first
// iteration) so -bench output doubles as a figure preview.
package dynvote_test

import (
	"fmt"
	"sync"
	"testing"

	"dynvote/internal/algset"
	"dynvote/internal/experiment"
	"dynvote/internal/metrics"
	"dynvote/internal/rng"
	"dynvote/internal/sim"
	"dynvote/internal/trace"
	"dynvote/internal/ykd"
)

// benchOpts keeps the benchmark workloads small enough to iterate:
// 64 processes as in the thesis, fewer runs and a coarser rate sweep.
func benchOpts() experiment.Options {
	return experiment.Options{
		Procs: 64,
		Runs:  40,
		Rates: []float64{0, 2, 6, 12},
		Seed:  20000505,
	}.Defaults()
}

var printOnce sync.Map

func printFirst(b *testing.B, key, text string) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		b.Log("\n" + text)
	}
}

func benchAvailabilityFigure(b *testing.B, id string, changes int, mode experiment.Mode) {
	b.Helper()
	o := benchOpts()
	spec := experiment.AvailabilityFigure(id, changes, mode, o)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		series, err := experiment.RunSweep(spec.Sweeps[0])
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printFirst(b, id, experiment.RenderAvailabilityTable(spec.Caption, spec.Sweeps[0], series))
		}
	}
}

func BenchmarkFig4_1FreshStart2Changes(b *testing.B) {
	benchAvailabilityFigure(b, "4-1", 2, experiment.FreshStart)
}

func BenchmarkFig4_2FreshStart6Changes(b *testing.B) {
	benchAvailabilityFigure(b, "4-2", 6, experiment.FreshStart)
}

func BenchmarkFig4_3FreshStart12Changes(b *testing.B) {
	benchAvailabilityFigure(b, "4-3", 12, experiment.FreshStart)
}

func BenchmarkFig4_4Cascading2Changes(b *testing.B) {
	benchAvailabilityFigure(b, "4-4", 2, experiment.Cascading)
}

func BenchmarkFig4_5Cascading6Changes(b *testing.B) {
	benchAvailabilityFigure(b, "4-5", 6, experiment.Cascading)
}

func BenchmarkFig4_6Cascading12Changes(b *testing.B) {
	benchAvailabilityFigure(b, "4-6", 12, experiment.Cascading)
}

func benchAmbiguityFigure(b *testing.B, stable bool, label string) {
	b.Helper()
	o := benchOpts()
	spec := experiment.AmbiguityFigure("4-7/4-8", "Ambiguous sessions", o)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, sweep := range spec.Sweeps {
			series, err := experiment.RunSweep(sweep)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				printFirst(b, fmt.Sprintf("%s-%d", label, sweep.Changes),
					experiment.RenderAmbiguityTable(label, sweep, series, stable))
			}
		}
	}
}

func BenchmarkFig4_7AmbiguousStable(b *testing.B) {
	benchAmbiguityFigure(b, true, "Figure 4-7: retained when stable")
}

func BenchmarkFig4_8AmbiguousInProgress(b *testing.B) {
	benchAmbiguityFigure(b, false, "Figure 4-8: in progress")
}

// BenchmarkScaling32_48_64 reproduces the §4.1 scaling check: the
// Figure 4-2 workload at three system sizes gives almost identical
// availability.
func BenchmarkScaling32_48_64(b *testing.B) {
	o := benchOpts()
	ykdF := algset.Availability()[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var lines string
		for _, n := range []int{32, 48, 64} {
			res, err := experiment.RunCase(experiment.CaseSpec{
				Factory: ykdF, Procs: n, Changes: 6, MeanRounds: 6,
				Runs: o.Runs, Mode: experiment.FreshStart, Seed: o.Seed,
			})
			if err != nil {
				b.Fatal(err)
			}
			lines += fmt.Sprintf("%d procs: %s\n", n, res.Availability)
		}
		if i == 0 {
			printFirst(b, "scaling", "Scaling check (ykd, 6 changes, rate 6):\n"+lines)
		}
	}
}

// BenchmarkYKDvsDFLSPaired reproduces the §4.1 paired measurement: YKD
// forms a primary where DFLS does not in ≈3% of runs.
func BenchmarkYKDvsDFLSPaired(b *testing.B) {
	o := benchOpts()
	ykdF, _ := algset.ByName("ykd")
	dflsF, _ := algset.ByName("dfls")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pr, err := experiment.RunPaired(ykdF, dflsF, experiment.CaseSpec{
			Procs: o.Procs, Changes: 6, MeanRounds: 6,
			Runs: o.Runs, Mode: experiment.FreshStart, Seed: o.Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printFirst(b, "paired", fmt.Sprintf(
				"Paired ykd vs dfls (6 changes, rate 6): ykd-only %.2f%% of %d runs",
				pr.FirstAdvantagePercent(), pr.Runs))
		}
	}
}

// BenchmarkSoakSafety is the scaled trial-by-fire of §2.2: cascading
// changes with the safety checker on after every round. The full
// 1,310,000-change campaign is cmd/quorumcheck.
func BenchmarkSoakSafety(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := sim.NewDriver(ykd.Factory(ykd.VariantYKD), sim.Config{
			Procs: 64, Changes: 120, MeanRounds: 1.5, CheckSafety: true,
		}, rng.New(int64(i)))
		if _, err := d.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSoakSafetyTraced is BenchmarkSoakSafety with the ring
// quorumcheck attaches when it replays a failed chain: 4096 events,
// deliveries sampled one in eight. The difference between the two is
// what the recorder costs a traced run.
func BenchmarkSoakSafetyTraced(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := sim.NewDriver(ykd.Factory(ykd.VariantYKD), sim.Config{
			Procs: 64, Changes: 120, MeanRounds: 1.5, CheckSafety: true,
			Trace: trace.NewRecorder(4096), TraceSampleEvery: 8,
		}, rng.New(int64(i)))
		if _, err := d.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMessageSizes reproduces the §3.4 message-size measurement:
// with 64 processes the exchanged information stays in the ~2 KB
// range.
func BenchmarkMessageSizes(b *testing.B) {
	o := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunCase(experiment.CaseSpec{
			Factory: algset.Availability()[0], Procs: 64, Changes: 12, MeanRounds: 2,
			Runs: o.Runs, Mode: experiment.FreshStart, Seed: o.Seed, MeasureSizes: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printFirst(b, "sizes", fmt.Sprintf(
				"Message sizes (ykd, 64 procs): max message %d B, max round traffic %d B",
				res.Sizes.MaxMessageBytes, res.Sizes.MaxRoundBytes))
		}
	}
}

// BenchmarkCrashStudy runs the §5.1 extension: one process (the
// lexical tie-breaker) crashes mid-run; 1-pending's unresolvable
// pending sessions make it suffer the most.
func BenchmarkCrashStudy(b *testing.B) {
	o := benchOpts()
	spec := experiment.CrashStudySpec{
		Procs: 32, Changes: 12, MeanRounds: 2,
		Runs: o.Runs, Seed: o.Seed, Victim: 0, AfterChanges: 4,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunCrashStudy(spec)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printFirst(b, "crash", experiment.RenderCrashStudy(spec, rows))
		}
	}
}

// BenchmarkTimingStudy runs the §5.1 extension comparing geometric,
// periodic and clustered change-timing models.
func BenchmarkTimingStudy(b *testing.B) {
	o := benchOpts()
	spec := experiment.TimingStudySpec{
		Procs: 32, Changes: 12, MeanRounds: 2, Runs: o.Runs, Seed: o.Seed,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunTimingStudy(spec)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printFirst(b, "timing", experiment.RenderTimingStudy(spec, rows))
		}
	}
}

// Ablation benches: the YKD design choices the thesis's variants
// isolate, measured head-to-head on identical schedules.
func benchAblation(b *testing.B, a1, a2 string) {
	o := benchOpts()
	f1, _ := algset.ByName(a1)
	f2, _ := algset.ByName(a2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pr, err := experiment.RunPaired(f1, f2, experiment.CaseSpec{
			Procs: o.Procs, Changes: 12, MeanRounds: 2,
			Runs: o.Runs, Mode: experiment.FreshStart, Seed: o.Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printFirst(b, a1+a2, fmt.Sprintf("ablation %s vs %s: %s-only %.1f%%, %s-only %.1f%% of %d runs",
				a1, a2, a1, pr.FirstAdvantagePercent(),
				a2, 100*float64(pr.OnlySecond)/float64(pr.Runs), pr.Runs))
		}
	}
}

// BenchmarkAblationPipelining isolates YKD's ability to pipeline past
// pending sessions (vs 1-pending, which blocks).
func BenchmarkAblationPipelining(b *testing.B) { benchAblation(b, "ykd", "1-pending") }

// BenchmarkAblationDeletionRound isolates immediate vs deferred
// ambiguous-session deletion (YKD vs DFLS).
func BenchmarkAblationDeletionRound(b *testing.B) { benchAblation(b, "ykd", "dfls") }

// BenchmarkAblationResolutionQuorum isolates all-members vs majority
// resolution of a pending session (1-pending vs MR1p).
func BenchmarkAblationResolutionQuorum(b *testing.B) { benchAblation(b, "1-pending", "mr1p") }

// BenchmarkSingleRun is the microbenchmark of the simulation core: one
// fresh 64-process run, 6 changes at rate 4.
func BenchmarkSingleRun(b *testing.B) {
	benchSingleRun(b, 64)
}

// BenchmarkSingleRun128 and BenchmarkSingleRun256 are the same
// workload at the N-scaling study's system sizes: runtime should grow
// near the O(N²) message floor (every view change broadcasts N
// messages of O(N) recipients), not the allocation-bound curve the
// single-word set representation had past 64 processes.
func BenchmarkSingleRun128(b *testing.B) { benchSingleRun(b, 128) }

func BenchmarkSingleRun256(b *testing.B) { benchSingleRun(b, 256) }

// BenchmarkSingleRun512 and BenchmarkSingleRun1024 extend the scaling
// ladder past the inline set boundary, on the identical workload — no
// reduced change count, no shortened runs — so the reported ratios are
// honest. The O(N²) message floor alone puts 1024 at 16× the 256-proc
// traffic; the kilo-process pass's job is to keep the per-message cost
// flat enough that the measured ratio stays near that floor rather
// than the 100×+ the allocation-bound paths produced.
func BenchmarkSingleRun512(b *testing.B) { benchSingleRun(b, 512) }

func BenchmarkSingleRun1024(b *testing.B) { benchSingleRun(b, 1024) }

func benchSingleRun(b *testing.B, procs int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := sim.NewDriver(ykd.Factory(ykd.VariantYKD), sim.Config{
			Procs: procs, Changes: 6, MeanRounds: 4,
		}, rng.New(int64(i)))
		if _, err := d.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLatencyStudy measures re-formation latency — the rounds an
// algorithm needs to restore a primary after turbulence ends, where
// MR1p's five-round protocol shows a cost that availability hides.
func BenchmarkLatencyStudy(b *testing.B) {
	o := benchOpts()
	spec := experiment.LatencyStudySpec{
		Procs: 32, Changes: 12, MeanRounds: 2, Runs: o.Runs, Seed: o.Seed,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunLatencyStudy(spec)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printFirst(b, "latency", experiment.RenderLatencyStudy(spec, rows))
		}
	}
}

// BenchmarkDriverMetricsOverhead quantifies the cost of the metrics
// layer on the Figure 4-2 unit workload: "off" is the nil-registry
// no-op path (the default for every existing caller), "on" pays the
// atomic increments. The contract is that "off" matches the
// uninstrumented driver and "on" stays within a few percent.
func BenchmarkDriverMetricsOverhead(b *testing.B) {
	run := func(b *testing.B, reg *metrics.Registry) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := sim.NewDriver(ykd.Factory(ykd.VariantYKD), sim.Config{
				Procs: 64, Changes: 6, MeanRounds: 4, Metrics: reg,
			}, rng.New(int64(i)))
			if _, err := d.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, metrics.NewRegistry()) })
}
