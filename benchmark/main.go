// Command benchmark is the repository's one benchmark: six workloads
// over the simulator, the campaign farm and the live TCP stack, the
// end-to-end metrics every workload reports, and a traced pass that
// splits each workload's time across the packages below it. See
// README.md in this directory and BENCHMARK.json at the root.
//
//	go run ./benchmark                        # every workload, timed pass
//	go run ./benchmark -trace 1               # plus the traced pass and span files
//	go run ./benchmark -workload kilo_1024    # one workload, in this process
//	go run ./benchmark -check-repeat          # timed suite twice, compared against the bounds
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed golden.json was recorded at.
const defaultSeed = 1

//go:embed golden.json
var goldenJSON []byte

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed    = flag.Int64("seed", defaultSeed, "seed the workload's inputs derive from")
		seconds = flag.Float64("seconds", runSeconds, "measurement window per workload")
		trace   = flag.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
		repeat  = flag.Bool("check-repeat", false, "run the timed suite twice and compare the two against the declared bounds")
	)
	flag.Parse()
	var err error
	switch {
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace == 1)
	case *repeat:
		err = checkRepeat(*seed, *seconds)
	default:
		_, err = runSuite(*seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func findWorkload(name string) (workloadDecl, error) {
	var names []string
	for _, d := range workloads {
		if d.Name == name {
			return d, nil
		}
		names = append(names, d.Name)
	}
	return workloadDecl{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runOne measures one workload in this process and prints its result.
func runOne(name string, seed int64, seconds float64, traced bool) error {
	decl, err := findWorkload(name)
	if err != nil {
		return err
	}
	// Two threads: what this box has, and what the laps were sized on.
	runtime.GOMAXPROCS(2)
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d %s\n",
		name, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	e := env{seed: seed}
	window := seconds
	setups := 3 // setup_s is the median of three full set-ups
	if traced {
		// The traced run splits the window between an untraced pass
		// (the reference for overhead) and the traced one.
		window, e.tracedSeconds, e.spans, setups = seconds/2, seconds/2, newSpanLog(), 1
	}
	var w workload
	var setupS []float64
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
		}
		w = decl.build(e)
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return fmt.Errorf("%s: set-up: %w", name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() { w.close() }()

	timed, err := runLaps(w, window)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := checkFingerprint(name, seed, timed); err != nil {
		return fmt.Errorf("%s: output check: %w", name, err)
	}
	attempted, failed, refused := timed.counts()
	res := result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}

	rates, waits := timed.rates(), timed.waits()
	fmt.Printf("%-28s %14s %-6s %s\n", "metric", "value", "unit", "over laps: n  q1 / median / q3")
	row := func(name, unit string, value float64, laps []float64) {
		line := fmt.Sprintf("%-28s %14.6g %-6s", name, value, unit)
		if laps != nil {
			q1, q2, q3 := quartiles(laps)
			line += fmt.Sprintf(" n=%d  %.6g / %.6g / %.6g", len(laps), q1, q2, q3)
		}
		fmt.Println(line)
	}
	if !traced {
		values := map[string]float64{
			"setup_s":      median(setupS),
			"ops_per_s":    median(rates),
			"wait_p50_us":  median(waits),
			"accepted_pct": 100 * float64(attempted-failed-refused) / float64(attempted),
		}
		laps := map[string][]float64{"setup_s": setupS, "ops_per_s": rates, "wait_p50_us": waits}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
			row(d.Name, d.Unit, values[d.Name], laps[d.Name])
		}
		fmt.Printf("# ops_per_s counts %s; attempted=%d failed=%d refused=%d; peak RSS %.1f MB\n",
			decl.rateUnit, attempted, failed, refused, peakRSSMB())
		for _, x := range timed.extraNames() {
			row("  "+x, "", timed.extra(x), timed.extras(x))
		}
		return printResult(res)
	}

	layers, err := w.layers(timed)
	if err != nil {
		return fmt.Errorf("%s: traced pass: %w", name, err)
	}
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	for x := range layers {
		if !declared[x] {
			return fmt.Errorf("%s: traced pass reported %q, which spec.go does not declare", name, x)
		}
	}
	// What only the untraced pass can say: client-observed latencies
	// and rates in the simulator's units.
	for _, x := range timed.extraNames() {
		if _, set := layers[x]; declared[x] && !set {
			layers[x] = timed.extra(x)
		}
	}
	layers["go.peak_rss_mb"] = peakRSSMB()
	layers["bench.laps"] = float64(len(timed.laps))
	layers["bench.lap_iqr_share"] = iqrShare(rates)
	for _, d := range perLayer {
		res.Metrics[d.Name] = metricValue{layers[d.Name], d.Unit}
		row(d.Name, d.Unit, layers[d.Name], nil)
	}
	path, err := e.spans.write("benchmark/out", name)
	if err != nil {
		return fmt.Errorf("%s: span file: %w", name, err)
	}
	fmt.Printf("# spans: %s\n", path)
	return printResult(res)
}

func printResult(res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// checkFingerprint holds a sim workload's laps to each other and, at
// the default seed, to golden.json.
func checkFingerprint(name string, seed int64, timed *pass) error {
	fp, err := timed.sameFingerprint()
	if err != nil || fp == 0 {
		return err
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	got := fmt.Sprintf("%016x", fp)
	if want := golden[name]; seed == defaultSeed && got != want {
		return fmt.Errorf("fingerprint %s at seed %d, golden.json has %q", got, seed, want)
	}
	fmt.Printf("# fingerprint %s, identical on %d laps\n", got, len(timed.laps))
	return nil
}

// runChild runs one workload in a child process of this binary, so that
// peak RSS and the GC state are the workload's own, passes its
// output through and parses its last line.
func runChild(name string, seed int64, seconds float64, traced bool) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s: last line is not a result: %w", name, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%s: outputs incorrect", name)
	}
	return res, nil
}

// runSuite runs every workload: the timed pass, then with traced the
// traced pass as well. It returns the timed results by workload.
func runSuite(seed int64, seconds float64, traced bool) (map[string]result, error) {
	results := map[string]result{}
	var errs []error
	for _, d := range workloads {
		res, err := runChild(d.Name, seed, seconds, false)
		if err == nil && traced {
			_, err = runChild(d.Name, seed, seconds, true)
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		results[d.Name] = res
		fmt.Println()
	}
	return results, errors.Join(errs...)
}

// checkRepeat runs the timed suite twice and holds every end-to-end
// metric of the second run to the first within its declared bound, in
// both directions: two runs of the same code must agree.
func checkRepeat(seed int64, seconds float64) error {
	first, err := runSuite(seed, seconds, false)
	if err != nil {
		return err
	}
	second, err := runSuite(seed, seconds, false)
	if err != nil {
		return err
	}
	misses := 0
	fmt.Printf("%-18s %-14s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "differ", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := first[w.Name].Metrics[d.Name].Value, second[w.Name].Metrics[d.Name].Value
			differ := (max(a, b) - min(a, b)) / min(a, b)
			verdict := ""
			if differ > d.Bound {
				verdict = "  MISS"
				misses++
			}
			fmt.Printf("%-18s %-14s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w.Name, d.Name, a, b, 100*differ, 100*d.Bound, verdict)
		}
	}
	if misses > 0 {
		return fmt.Errorf("%d metrics differ between two runs of the same code by more than their bound", misses)
	}
	return nil
}
