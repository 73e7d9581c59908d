// Command figures regenerates every table and figure of the thesis's
// evaluation (Chapter 4): the six availability figures (4-1 through
// 4-6), the two ambiguous-session figures (4-7, 4-8), and the in-text
// measurements — the 32/48/64 scaling check, the paired YKD-vs-DFLS
// comparison, and the §3.4 message-size maxima.
//
// Tables are printed to stdout; with -out, CSV series and rendered SVG
// plots are also written to the given directory.
//
// Examples:
//
//	figures                      # the full campaign, thesis parameters
//	figures -runs 200            # quicker, noisier
//	figures -fig 4-3             # a single figure
//	figures -extras              # scaling + paired + message sizes only
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dynvote/internal/algset"
	"dynvote/internal/experiment"
	"dynvote/internal/metrics"
	"dynvote/internal/plot"
	"dynvote/internal/profile"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var (
		runs    = fs.Int("runs", 1000, "runs per case (thesis: 1000)")
		procs   = fs.Int("procs", 64, "number of processes (thesis: 64)")
		fig     = fs.String("fig", "", "single figure to regenerate (4-1 .. 4-8); empty = all")
		out     = fs.String("out", "", "directory for CSV output (optional)")
		seed    = fs.Int64("seed", 20000505, "root random seed")
		rates   = fs.String("rates", "", "comma-separated rate sweep (default 0..12)")
		extras  = fs.Bool("extras", false, "run only the in-text measurements (scaling, paired, sizes)")
		scaling = fs.Bool("scaling", false, "run only the N-scaling study (32..1024 processes)")
		studies = fs.Bool("studies", false, "run only the §5.1 extension studies (crash, change timing)")
		noext   = fs.Bool("figures-only", false, "skip the in-text measurements")
		verbose = fs.Bool("v", false, "per-case progress on stderr")
		mout    = fs.String("metrics-out", "", "write a machine-readable JSON run report (results + metrics snapshot) to this file")
		workers = fs.Int("workers", 0, "sweep/run worker budget (0 = GOMAXPROCS, 1 = sequential)")
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

	opts := experiment.Options{Procs: *procs, Runs: *runs, Seed: *seed}
	if *rates != "" {
		for _, s := range strings.Split(*rates, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("bad -rates: %w", err)
			}
			opts.Rates = append(opts.Rates, v)
		}
	}
	if *verbose {
		opts.Progress = func(s string) { fmt.Fprintln(os.Stderr, "  "+s) }
	}
	var (
		reg    *metrics.Registry
		report *experiment.RunReport
	)
	if *mout != "" {
		reg = metrics.NewRegistry()
		opts.Metrics = reg
		report = &experiment.RunReport{ReportHeader: metrics.ReportHeader{Tool: "figures", Seed: *seed}, Procs: *procs, Runs: *runs}
	}
	opts = opts.Defaults()

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}

	start := time.Now()
	writeReport := func() error {
		if report == nil {
			return nil
		}
		report.Finish(start, reg)
		if err := metrics.WriteReportFile(*mout, report); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", *mout)
		return nil
	}
	if *studies {
		if err := emitStudies(opts); err != nil {
			return err
		}
		fmt.Printf("total wall time: %.1fs\n", time.Since(start).Seconds())
		return writeReport()
	}
	if *scaling {
		if err := emitScaling(opts, *out, nil); err != nil {
			return err
		}
		fmt.Printf("total wall time: %.1fs\n", time.Since(start).Seconds())
		return writeReport()
	}
	if !*extras {
		specs := experiment.Figures(opts)
		if *fig != "" {
			f, err := experiment.FigureByID(*fig, opts)
			if err != nil {
				return err
			}
			specs = []experiment.FigureSpec{f}
		}
		for _, spec := range specs {
			if err := emitFigure(spec, *out, report); err != nil {
				return err
			}
		}
	}
	if *extras || (*fig == "" && !*noext) {
		if err := emitExtras(opts, *out); err != nil {
			return err
		}
	}
	fmt.Printf("total wall time: %.1fs\n", time.Since(start).Seconds())
	return writeReport()
}

func emitFigure(spec experiment.FigureSpec, outDir string, report *experiment.RunReport) error {
	fmt.Printf("==== Figure %s: %s ====\n\n", spec.ID, spec.Caption)
	for _, sweep := range spec.Sweeps {
		start := time.Now()
		series, err := experiment.RunSweep(sweep)
		if err != nil {
			return err
		}
		if report != nil {
			report.AddSeries(series, sweep.Changes)
		}
		switch spec.Kind {
		case experiment.KindAvailability:
			fmt.Println(experiment.RenderAvailabilityTable(spec.Caption, sweep, series))
			if outDir != "" {
				name := filepath.Join(outDir, "fig"+spec.ID+".csv")
				if err := os.WriteFile(name, []byte(experiment.RenderAvailabilityCSV(sweep, series)), 0o644); err != nil {
					return err
				}
				svg, err := availabilitySVG(spec, sweep, series)
				if err != nil {
					return err
				}
				if err := os.WriteFile(filepath.Join(outDir, "fig"+spec.ID+".svg"), []byte(svg), 0o644); err != nil {
					return err
				}
			}
		case experiment.KindAmbiguity:
			// Figures 4-7 (stable) and 4-8 (in progress) come from the
			// same runs; render both views.
			fmt.Println(experiment.RenderAmbiguityTable(
				"Figure 4-7: retained when stable", sweep, series, true))
			fmt.Println(experiment.RenderAmbiguityTable(
				"Figure 4-8: sent over the network (in progress)", sweep, series, false))
			if outDir != "" {
				for _, v := range []struct {
					fig    string
					stable bool
				}{{"4-7", true}, {"4-8", false}} {
					name := filepath.Join(outDir,
						fmt.Sprintf("fig%s-changes%d.csv", v.fig, sweep.Changes))
					if err := os.WriteFile(name,
						[]byte(experiment.RenderAmbiguityCSV(sweep, series, v.stable)), 0o644); err != nil {
						return err
					}
					svg, err := ambiguitySVG(sweep, series, v.stable)
					if err != nil {
						return err
					}
					svgName := filepath.Join(outDir,
						fmt.Sprintf("fig%s-changes%d.svg", v.fig, sweep.Changes))
					if err := os.WriteFile(svgName, []byte(svg), 0o644); err != nil {
						return err
					}
				}
			}
		}
		fmt.Printf("[%.1fs]\n\n", time.Since(start).Seconds())
	}
	return nil
}

func emitExtras(opts experiment.Options, outDir string) error {
	// Scaling check (§4.1): Figure 4-2's workload at 32, 48 and 64
	// processes should give almost identical availability. The same
	// study extended out to 256 processes is -scaling / emitScaling.
	fmt.Println("==== Scaling check (§4.1): 6 fresh changes at 32/48/64 processes ====")
	fmt.Println()
	if err := emitScaling(opts, "", []int{32, 48, 64}); err != nil {
		return err
	}

	// Paired YKD vs DFLS (§4.1): YKD forms a primary where DFLS does
	// not in ≈3% of runs at moderate-to-high rates.
	fmt.Println("==== Paired comparison (§4.1): YKD vs DFLS, same random sequences ====")
	fmt.Println()
	ykdF, _ := algset.ByName("ykd")
	dflsF, _ := algset.ByName("dfls")
	for _, changes := range []int{2, 6, 12} {
		pr, err := experiment.RunPaired(ykdF, dflsF, experiment.CaseSpec{
			Procs: opts.Procs, Changes: changes, MeanRounds: 6,
			Runs: opts.Runs, Mode: experiment.FreshStart, Seed: opts.Seed,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%2d changes, rate 6: ykd-only %.2f%%  dfls-only %.2f%%  both %.1f%%  neither %.1f%%\n",
			changes, pr.FirstAdvantagePercent(),
			100*float64(pr.OnlySecond)/float64(pr.Runs),
			100*float64(pr.Both)/float64(pr.Runs),
			100*float64(pr.Neither)/float64(pr.Runs))
	}
	fmt.Println()

	// Message sizes (§3.4): largest single broadcast and largest
	// per-round traffic with 64 processes must stay around 2 KB.
	fmt.Println("==== Message sizes (§3.4): 64 processes, 12 changes, rate 2 ====")
	fmt.Println()
	for _, name := range []string{"ykd", "ykd-unopt", "dfls", "mr1p"} {
		f, err := algset.ByName(name)
		if err != nil {
			return err
		}
		res, err := experiment.RunCase(experiment.CaseSpec{
			Factory: f, Procs: opts.Procs, Changes: 12, MeanRounds: 2,
			Runs: min(opts.Runs, 300), Mode: experiment.FreshStart, Seed: opts.Seed,
			MeasureSizes: true,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-12s max message: %5d B   max broadcast bytes in one round: %6d B   max sessions held: %d\n",
			name, res.Sizes.MaxMessageBytes, res.Sizes.MaxRoundBytes, res.InProgress.Max())
	}
	_ = outDir
	fmt.Println()
	return nil
}

// emitScaling runs the N-scaling study — the §4.1 scaling check
// extended past the thesis to 1024 processes — printing the table and,
// with an output directory, writing scaling.csv and scaling.svg. A nil
// sizes slice selects the full 32..1024 sweep; run budgets above 256
// processes are divided down inside the study (see ScalingStudySpec).
func emitScaling(opts experiment.Options, outDir string, sizes []int) error {
	spec := experiment.ScalingStudySpec{
		Sizes: sizes, Runs: opts.Runs, Seed: opts.Seed, Progress: opts.Progress,
	}.Defaults()
	rows, err := experiment.RunScalingStudy(spec)
	if err != nil {
		return err
	}
	fmt.Println(experiment.RenderScalingTable(spec, rows))
	if outDir != "" {
		name := filepath.Join(outDir, "scaling.csv")
		if err := os.WriteFile(name, []byte(experiment.RenderScalingCSV(spec, rows)), 0o644); err != nil {
			return err
		}
		svg, err := scalingSVG(spec, rows)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(outDir, "scaling.svg"), []byte(svg), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// scalingSVG renders the N-scaling study as a line chart: availability
// against system size, one series per change rate. The X axis is
// log₂-scaled: the sweep's sizes are octave-spaced (32..1024), and a
// linear axis would pile the five smallest sizes — and their labels —
// into its left tenth.
func scalingSVG(spec experiment.ScalingStudySpec, rows []experiment.ScalingRow) (string, error) {
	if len(rows) == 0 {
		return "", fmt.Errorf("scaling study produced no rows")
	}
	x := make([]float64, len(rows))
	for i, row := range rows {
		x[i] = float64(row.Procs)
	}
	chart := plot.LineChart{
		Title:    "N-scaling study",
		Subtitle: "ykd availability across system sizes (fresh starts)",
		XLabel:   "processes (log scale)",
		YLabel:   "availability %",
		X:        x,
		YMin:     40, YMax: 100,
		XLog2: true,
	}
	for ri := range rows[0].Points {
		vals := make([]float64, len(rows))
		for i, row := range rows {
			vals[i] = row.Points[ri].Availability.Percent()
			if vals[i] < chart.YMin {
				chart.YMin = vals[i] - 5
			}
		}
		chart.Series = append(chart.Series, plot.Series{
			Name: fmt.Sprintf("rate=%g", spec.Rates[ri]), Values: vals,
		})
	}
	return chart.Render()
}

// emitStudies runs the §5.1 future-work studies: one process crashing
// mid-run, and non-uniform change-timing distributions.
func emitStudies(opts experiment.Options) error {
	fmt.Println("==== Extension study (§5.1): crash of the lexically smallest process ====")
	fmt.Println()
	crashSpec := experiment.CrashStudySpec{
		Procs: opts.Procs, Changes: 12, MeanRounds: 2,
		Runs: opts.Runs, Seed: opts.Seed, Victim: 0, AfterChanges: 4,
	}
	rows, err := experiment.RunCrashStudy(crashSpec)
	if err != nil {
		return err
	}
	fmt.Println(experiment.RenderCrashStudy(crashSpec, rows))

	fmt.Println("==== Extension study (§5.1): change-timing distributions ====")
	fmt.Println()
	timingSpec := experiment.TimingStudySpec{
		Procs: opts.Procs, Changes: 12, MeanRounds: 2,
		Runs: opts.Runs, Seed: opts.Seed,
	}
	trows, err := experiment.RunTimingStudy(timingSpec)
	if err != nil {
		return err
	}
	fmt.Println(experiment.RenderTimingStudy(timingSpec, trows))

	fmt.Println("==== Extension study: re-formation latency ====")
	fmt.Println()
	latSpec := experiment.LatencyStudySpec{
		Procs: opts.Procs, Changes: 12, MeanRounds: 2,
		Runs: opts.Runs, Seed: opts.Seed,
	}
	lrows, err := experiment.RunLatencyStudy(latSpec)
	if err != nil {
		return err
	}
	fmt.Println(experiment.RenderLatencyStudy(latSpec, lrows))
	return nil
}

// availabilitySVG renders one availability figure as a line chart.
func availabilitySVG(spec experiment.FigureSpec, sweep experiment.SweepSpec, series []experiment.Series) (string, error) {
	chart := plot.LineChart{
		Title:    "Figure " + spec.ID,
		Subtitle: fmt.Sprintf("%s — %d processes, %d runs/case", spec.Caption, sweep.Procs, sweep.Runs),
		XLabel:   "mean message rounds between connectivity changes",
		YLabel:   "availability %",
		X:        sweep.Rates,
		YMin:     40, YMax: 100,
	}
	for _, s := range series {
		vals := make([]float64, len(s.Points))
		min := 100.0
		for i, p := range s.Points {
			vals[i] = p.Availability.Percent()
			if vals[i] < min {
				min = vals[i]
			}
		}
		if min < chart.YMin {
			chart.YMin = min - 5
		}
		chart.Series = append(chart.Series, plot.Series{Name: s.Algorithm, Values: vals})
	}
	return chart.Render()
}

// ambiguitySVG renders one ambiguity panel as grouped bars of the
// percentage of samples retaining at least one session.
func ambiguitySVG(sweep experiment.SweepSpec, series []experiment.Series, stable bool) (string, error) {
	which := "retained when stable"
	if !stable {
		which = "in progress"
	}
	chart := plot.BarChart{
		Title:    fmt.Sprintf("Ambiguous sessions %s — %d changes", which, sweep.Changes),
		Subtitle: fmt.Sprintf("%d processes, %d runs/case", sweep.Procs, sweep.Runs),
		XLabel:   "mean message rounds between connectivity changes",
		YLabel:   "% of samples with ≥1 session",
	}
	for _, rate := range sweep.Rates {
		chart.Groups = append(chart.Groups, strconv.FormatFloat(rate, 'g', -1, 64))
	}
	for _, s := range series {
		vals := make([]float64, len(s.Points))
		for i := range s.Points {
			h := &s.Points[i].Stable
			if !stable {
				h = &s.Points[i].InProgress
			}
			vals[i] = h.PercentAtLeast(1)
		}
		chart.Series = append(chart.Series, plot.Series{Name: s.Algorithm, Values: vals})
	}
	return chart.Render()
}
