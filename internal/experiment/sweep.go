package experiment

import (
	"fmt"
	"sync"
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

// sweepMetrics instruments RunSweep itself; the driver-level counters
// land in the same registry through CaseSpec.Metrics.
type sweepMetrics struct {
	cases   *metrics.Counter
	seconds *metrics.Histogram
	workers *metrics.Gauge
}

func newSweepMetrics(reg *metrics.Registry) sweepMetrics {
	return sweepMetrics{
		cases:   reg.Counter("sweep_cases_total", "measurement cases completed"),
		seconds: reg.Histogram("sweep_case_seconds", "wall-clock seconds per measurement case", metrics.DefBuckets),
		workers: reg.Gauge("sweep_workers", "concurrent sweep workers"),
	}
}

// Series is one algorithm's line in a figure: a result per swept rate.
type Series struct {
	Algorithm string
	Points    []CaseResult
}

// RunSweep executes every (algorithm, rate) case of the sweep,
// spreading cases across CPUs, and returns one series per algorithm in
// the order the factories were given.
func RunSweep(spec SweepSpec) ([]Series, error) {
	type cell struct {
		alg, rate int
	}
	cells := make([]cell, 0, len(spec.Factories)*len(spec.Rates))
	for a := range spec.Factories {
		for r := range spec.Rates {
			cells = append(cells, cell{alg: a, rate: r})
		}
	}

	series := make([]Series, len(spec.Factories))
	for a, f := range spec.Factories {
		series[a] = Series{Algorithm: f.Name, Points: make([]CaseResult, len(spec.Rates))}
	}

	// Cells share the experiment-wide worker budget with the run-level
	// parallelism inside each RunCase: when cases parallelize their
	// own runs, the sweep does not over-subscribe the machine by
	// stacking a second GOMAXPROCS-wide pool on top.
	workers := Parallelism()
	if workers > len(cells) {
		workers = len(cells)
	}
	sm := newSweepMetrics(spec.Metrics)
	sm.workers.Set(int64(workers))
	start := time.Now()
	var (
		mu       sync.Mutex
		firstErr error
		done     int // cases reported to Progress
	)
	parallelDo(len(cells), func(i int) {
		mu.Lock()
		failed := firstErr != nil
		mu.Unlock()
		if failed {
			return // a cell failed; don't start new ones
		}
		c := cells[i]
		cs := CaseSpec{
			Factory:      spec.Factories[c.alg],
			Procs:        spec.Procs,
			Changes:      spec.Changes,
			MeanRounds:   spec.Rates[c.rate],
			Runs:         spec.Runs,
			Mode:         spec.Mode,
			Seed:         spec.Seed,
			MeasureSizes: spec.MeasureSizes,
			Metrics:      spec.Metrics,
		}
		caseStart := time.Now()
		res, err := RunCase(cs)
		sm.seconds.Observe(time.Since(caseStart).Seconds())
		sm.cases.Inc()

		mu.Lock()
		if err != nil && firstErr == nil {
			firstErr = err
		} else {
			series[c.alg].Points[c.rate] = res
		}
		if err == nil && spec.Progress != nil {
			done++
			spec.Progress(fmt.Sprintf("[%d/%d] %-16s rate=%-5.1f %s%s", done, len(cells),
				res.Algorithm, res.MeanRounds, res.Availability, eta(done, len(cells), time.Since(start))))
		}
		mu.Unlock()
	})
	if firstErr != nil {
		return nil, firstErr
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
