package experiment

import (
	"fmt"
	"time"

	"dynvote/internal/core"
	"dynvote/internal/metrics"
)

// SweepSpec is a full figure's workload: several algorithms, a fixed
// number of connectivity changes, and a sweep over change rates.
type SweepSpec struct {
	Factories []core.Factory
	Procs     int
	Changes   int
	// Rates is the x-axis: mean message rounds between connectivity
	// changes.
	Rates []float64
	Runs  int
	Mode  Mode
	Seed  int64
	// MeasureSizes additionally collects message-size maxima.
	MeasureSizes bool
	// Progress, when non-nil, receives one "[k/N] ... (eta 12s)" line
	// per completed case, under the lock that merges the case: the
	// sink needs no locking of its own.
	Progress func(string)
	// Metrics, when non-nil, receives sweep-level instrumentation
	// (per-case wall time, worker count) and is plumbed into every
	// case's simulation driver.
	Metrics *metrics.Registry
}

// Series is one algorithm's line in a figure: a result per swept rate.
type Series struct {
	Algorithm string
	Points    []CaseResult
}

// RunSweep executes every (algorithm, rate) case of the sweep as one
// flat job list and returns one series per algorithm in the order the
// factories were given.
func RunSweep(spec SweepSpec) ([]Series, error) {
	cells := make([]cell, 0, len(spec.Factories)*len(spec.Rates))
	for _, f := range spec.Factories {
		for _, rate := range spec.Rates {
			cells = append(cells, caseCell(CaseSpec{
				Factory: f, Procs: spec.Procs, Changes: spec.Changes, MeanRounds: rate, Runs: spec.Runs,
				Mode: spec.Mode, Seed: spec.Seed, MeasureSizes: spec.MeasureSizes, Metrics: spec.Metrics,
			}))
		}
	}
	// The sweep's own instruments; the drivers' counters land in the
	// same registry through CaseSpec.Metrics.
	cases := spec.Metrics.Counter("sweep_cases_total", "measurement cases completed")
	seconds := spec.Metrics.Histogram("sweep_case_seconds", "wall-clock seconds per measurement case", metrics.DefBuckets)
	start, done := time.Now(), 0
	results, workers, err := runCases(cells, func(_ int, res CaseResult, took time.Duration) {
		seconds.Observe(took.Seconds())
		cases.Inc()
		if spec.Progress != nil {
			done++
			spec.Progress(fmt.Sprintf("[%d/%d] %-16s rate=%-5.1f %s%s", done, len(cells),
				res.Algorithm, res.MeanRounds, res.Availability, eta(done, len(cells), time.Since(start))))
		}
	})
	spec.Metrics.Gauge("sweep_workers", "concurrent sweep workers").Set(int64(workers))
	if err != nil {
		return nil, err
	}
	series, k := make([]Series, len(spec.Factories)), len(spec.Rates)
	for a, f := range spec.Factories {
		series[a] = Series{Algorithm: f.Name, Points: results[a*k : (a+1)*k : (a+1)*k]}
	}
	return series, nil
}

// eta extrapolates the wall time left from the mean duration of the
// done cases out of total, elapsed so far. It is empty until there is
// something to extrapolate from and once nothing remains.
func eta(done, total int, elapsed time.Duration) string {
	if done == 0 || done >= total {
		return ""
	}
	remain := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
	return fmt.Sprintf("  (eta %s)", remain.Round(time.Second))
}
