// Command availsim runs a single measurement case of the availability
// study: one algorithm, one number of connectivity changes, one change
// rate, over many randomized runs — the unit cell behind every figure
// in the thesis.
//
// Examples:
//
//	availsim -alg ykd -changes 6 -rate 4 -runs 1000
//	availsim -alg mr1p -changes 12 -rate 1 -mode cascading -check
//	availsim -alg ykd -alg2 dfls -changes 6 -rate 4        # paired
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dynvote/internal/algset"
	"dynvote/internal/experiment"
	"dynvote/internal/metrics"
	"dynvote/internal/profile"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "availsim:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("availsim", flag.ContinueOnError)
	var (
		alg     = fs.String("alg", "ykd", "algorithm: ykd, ykd-unopt, dfls, 1-pending, mr1p, simple-majority")
		alg2    = fs.String("alg2", "", "second algorithm for a paired run-by-run comparison")
		procs   = fs.Int("procs", 64, "number of processes")
		changes = fs.Int("changes", 6, "connectivity changes per run")
		rate    = fs.Float64("rate", 4, "mean message rounds between connectivity changes")
		runs    = fs.Int("runs", 1000, "randomized runs")
		mode    = fs.String("mode", "fresh", "fresh or cascading")
		seed    = fs.Int64("seed", 20000505, "random seed")
		sizes   = fs.Bool("sizes", false, "measure message sizes (slower)")
		scaling = fs.Bool("scaling", false, "run the N-scaling study (32..1024 processes) instead of a single case")
		check   = fs.Bool("check", false, "run safety checker during every run")
		mout    = fs.String("metrics-out", "", "write a machine-readable JSON run report (results + metrics snapshot) to this file")
		workers = fs.Int("workers", 0, "run worker budget (0 = GOMAXPROCS, 1 = sequential)")
		cpuprof = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof = fs.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers != 0 {
		experiment.SetParallelism(*workers)
	}
	stopProfile, err := profile.Start(*cpuprof, *memprof)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfile(); perr != nil && err == nil {
			err = perr
		}
	}()

	factory, err := algset.ByName(*alg)
	if err != nil {
		return err
	}
	m := experiment.FreshStart
	switch *mode {
	case "fresh":
	case "cascading":
		m = experiment.Cascading
	default:
		return fmt.Errorf("unknown mode %q (fresh or cascading)", *mode)
	}

	var reg *metrics.Registry
	if *mout != "" {
		reg = metrics.NewRegistry()
	}
	spec := experiment.CaseSpec{
		Factory:      factory,
		Procs:        *procs,
		Changes:      *changes,
		MeanRounds:   *rate,
		Runs:         *runs,
		Mode:         m,
		Seed:         *seed,
		MeasureSizes: *sizes,
		CheckSafety:  *check,
		Metrics:      reg,
	}

	start := time.Now()
	report := experiment.RunReport{
		ReportHeader: metrics.ReportHeader{Tool: "availsim", Seed: *seed},
		Procs:        *procs, Runs: *runs, Mode: m.String(),
	}
	writeReport := func() error {
		if *mout == "" {
			return nil
		}
		report.Finish(start, reg)
		if err := metrics.WriteReportFile(*mout, report); err != nil {
			return err
		}
		fmt.Printf("  report written to %s\n", *mout)
		return nil
	}

	if *scaling {
		// The N-scaling sweep: the §4.1 scaling check extended out to
		// 1024 processes, on the standard ykd workload. -changes, -rate,
		// -runs and -seed carry over (-runs as the per-case budget up to
		// 256 processes, divided by (N/256)² beyond); -alg/-procs do
		// not apply.
		sspec := experiment.ScalingStudySpec{
			Rates: []float64{*rate}, Changes: *changes, Runs: *runs, Seed: *seed,
		}
		rows, err := experiment.RunScalingStudy(sspec)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderScalingTable(sspec, rows))
		fmt.Printf("total wall time: %.1fs\n", time.Since(start).Seconds())
		return writeReport()
	}

	if *alg2 != "" {
		second, err := algset.ByName(*alg2)
		if err != nil {
			return err
		}
		pr, err := experiment.RunPaired(factory, second, spec)
		if err != nil {
			return err
		}
		fmt.Printf("paired %s vs %s: %d procs, %d changes, rate %.1f, %s, %d runs (%.1fs)\n",
			factory.Name, second.Name, *procs, *changes, *rate, m, *runs, time.Since(start).Seconds())
		fmt.Printf("  both formed:       %5d\n", pr.Both)
		fmt.Printf("  only %-12s %5d (%.2f%%)\n", factory.Name+":", pr.OnlyFirst, pr.FirstAdvantagePercent())
		fmt.Printf("  only %-12s %5d\n", second.Name+":", pr.OnlySecond)
		fmt.Printf("  neither:           %5d\n", pr.Neither)
		return writeReport()
	}

	res, err := experiment.RunCase(spec)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d procs, %d changes, rate %.1f, %s, %d runs (%.1fs)\n",
		res.Algorithm, *procs, *changes, *rate, m, *runs, time.Since(start).Seconds())
	lo, hi := res.Availability.WilsonInterval()
	fmt.Printf("  availability:          %s   95%% CI [%.1f%%, %.1f%%]\n", res.Availability, lo, hi)
	if res.Reform.Total() > 0 {
		fmt.Printf("  reform latency:        mean %.2f rounds, max %d (never: %d runs)\n",
			res.Reform.Mean(), res.Reform.Max(), res.NeverReformed)
	}
	fmt.Printf("  ambiguous (stable):    ≥1: %.2f%%  max: %d\n",
		res.Stable.PercentAtLeast(1), res.Stable.Max())
	fmt.Printf("  ambiguous (in flight): ≥1: %.2f%%  max: %d  (%d samples)\n",
		res.InProgress.PercentAtLeast(1), res.InProgress.Max(), res.InProgress.Total())
	if *sizes {
		fmt.Printf("  max message: %d bytes; max per-round traffic: %d bytes\n",
			res.Sizes.MaxMessageBytes, res.Sizes.MaxRoundBytes)
	}
	report.AddCase(res, *changes)
	return writeReport()
}
