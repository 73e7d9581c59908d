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
// by more than -tolerance percent (ns/op is printed, never gated):
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -baseline BENCH_10.json
//
// -loadgen folds cmd/loadgen -json run reports into the same file as
// pseudo-benchmarks (mean request latency as ns/op; throughput,
// latency quantiles and failover recovery time under Extra), so live
// cluster runs can be committed and diffed like any other benchmark:
//
//	loadgen -inproc 3 -duration 5s -partition 2s -json run.json
//	benchjson -loadgen run.json -o BENCH_10.json </dev/null
//
// -campaign does the same for quorumcheck -json campaign reports
// (local or farmed): wall time per injected change as ns/op, with
// throughput, worker count and farm requeues under Extra:
//
//	quorumcheck -changes 20000 -json camp.json
//	quorumcheck -changes 20000 -farm-listen :0 -farm-workers 3 -json farm.json
//	benchjson -campaign camp.json -campaign farm.json -o BENCH_10.json </dev/null
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string { return fmt.Sprint([]string(*s)) }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func run(args []string, in io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default stdout; compare mode prints deltas instead)")
	baseline := fs.String("baseline", "", "committed BENCH_<n>.json to diff against; exits non-zero on regression")
	tolerance := fs.Float64("tolerance", 2, "allowed allocs/op growth percentage in compare mode")
	var loadgenFiles stringList
	fs.Var(&loadgenFiles, "loadgen", "loadgen -json report file to fold in as pseudo-benchmarks (repeatable; with no bench output, pipe </dev/null)")
	var campaignFiles stringList
	fs.Var(&campaignFiles, "campaign", "quorumcheck -json campaign report to fold in as pseudo-benchmarks (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	report, err := parseBench(in)
	if err != nil {
		return err
	}
	if err := mergeLoadgenReports(report, loadgenFiles); err != nil {
		return err
	}
	if err := mergeCampaignReports(report, campaignFiles); err != nil {
		return err
	}
	if len(report.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark result lines found on stdin (and no -loadgen or -campaign reports)")
	}

	if *out != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
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
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		_, err = stdout.Write(buf)
		return err
	}
	return nil
}
