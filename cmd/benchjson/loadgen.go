package main

import (
	"fmt"
	"os"

	"dynvote/internal/loadgen"
)

// loadgenBenchmarks folds a cmd/loadgen run report into benchmark
// rows, so live-path throughput/latency/failover numbers ride the same
// BENCH_<n>.json files as the simulator benchmarks. Mean request
// latency maps onto ns/op and everything else lands in Extra.
func loadgenBenchmarks(rep *loadgen.Report) []Benchmark {
	name := fmt.Sprintf("Loadgen/%s/nodes=%d/conns=%d", rep.Alg, rep.Nodes, rep.Conns)
	r := rep.Result
	b := Benchmark{
		Name:       name,
		Package:    "cmd/loadgen",
		Iterations: r.Requests,
		NsPerOp:    r.Latency.MeanMs * 1e6,
		Extra: map[string]float64{
			"rps":    r.ThroughputRPS,
			"p50-ms": r.Latency.P50Ms,
			"p95-ms": r.Latency.P95Ms,
			"p99-ms": r.Latency.P99Ms,
			"max-ms": r.Latency.MaxMs,
		},
	}
	if r.Errors > 0 {
		b.Extra["errors"] = float64(r.Errors)
	}
	out := []Benchmark{b}
	if f := rep.Failover; f != nil && f.RecoveryMs > 0 {
		out = append(out, Benchmark{
			Name:       name + "/failover",
			Package:    "cmd/loadgen",
			Iterations: 1,
			NsPerOp:    f.RecoveryMs * 1e6,
			Extra: map[string]float64{
				"primary-lost-ms": f.PrimaryLostMs,
				"recovery-ms":     f.RecoveryMs,
				"views-installed": float64(f.ViewsInstalled),
			},
		})
	}
	return out
}

// mergeLoadgenReports reads each loadgen -json report file and appends
// its benchmark rows to rep.
func mergeLoadgenReports(rep *Report, files []string) error {
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		lrep, err := loadgen.ReadReport(f)
		_ = f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if lrep.Kind != "loadgen" {
			return fmt.Errorf("%s: kind %q is not a loadgen report", path, lrep.Kind)
		}
		rep.Benchmarks = append(rep.Benchmarks, loadgenBenchmarks(lrep)...)
	}
	return nil
}
