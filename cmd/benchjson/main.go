// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON report, so benchmark numbers can be committed
// alongside a perf PR (BENCH_<n>.json) and diffed across revisions.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -o BENCH_10.json
//
// With -baseline it additionally compares the fresh results against a
// committed report, printing per-benchmark deltas (ns/op, B/op,
// allocs/op) and exiting non-zero when any benchmark's allocs/op grew
// by more than -tolerance percent or a baseline benchmark did not run
// (ns/op is printed, never gated):
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -baseline BENCH_10.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dynvote/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default stdout; compare mode prints deltas instead)")
	baseline := fs.String("baseline", "", "committed BENCH_<n>.json to diff against; exits non-zero on regression")
	tolerance := fs.Float64("tolerance", 2, "allowed allocs/op growth percentage in compare mode")
	if err := fs.Parse(args); err != nil {
		return err
	}

	report, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(report.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark result lines found on stdin")
	}

	if *out != "" {
		if err := metrics.WriteReportFile(*out, report); err != nil {
			return err
		}
	}
	if *baseline != "" {
		base, err := loadReport(*baseline)
		if err != nil {
			return err
		}
		return compareReports(base, report, *tolerance, stdout)
	}
	if *out == "" {
		return metrics.WriteReport(stdout, report)
	}
	return nil
}
