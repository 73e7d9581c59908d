package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Compare mode: diff a freshly parsed benchmark report against a
// committed baseline (BENCH_<n>.json) and fail on regressions. The
// regression gate is allocs/op — the one metric that is deterministic
// for this repository's benchmarks, so a threshold on it does not
// flake with machine load the way ns/op would. Time and byte deltas
// are still printed for the human reading the diff.

// loadReport reads a previously written BENCH_<n>.json.
func loadReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// benchKey identifies a benchmark across reports. The name keeps its
// -<procs> suffix: a GOMAXPROCS change is a real comparability break,
// better surfaced as missing/new than silently diffed.
func benchKey(b Benchmark) string { return b.Package + "." + b.Name }

// pctDelta returns the percentage change from old to new; ok is false
// when old is zero (no meaningful percentage).
func pctDelta(old, new float64) (pct float64, ok bool) {
	if old == 0 {
		return 0, false
	}
	return 100 * (new - old) / old, true
}

func fmtDelta(old, new float64) string {
	pct, ok := pctDelta(old, new)
	if !ok {
		if new == 0 {
			return "0"
		}
		return fmt.Sprintf("+%g (new)", new)
	}
	return fmt.Sprintf("%+.1f%%", pct)
}

// compareReports prints per-benchmark deltas of current vs baseline
// and returns an error naming every benchmark whose allocs/op grew by
// more than tolerance percent. ns/op is printed and never gated: at
// -benchtime 1x it moves with machine load, and timing claims belong
// to `go run ./benchmark`. Benchmarks present on only one side are
// reported but never fail the comparison (suites grow and shrink).
func compareReports(baseline, current *Report, tolerance float64, w io.Writer) error {
	base := make(map[string]Benchmark, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[benchKey(b)] = b
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tns/op\tB/op\tallocs/op")
	var regressed []string
	newCount := 0
	seen := make(map[string]bool, len(current.Benchmarks))
	for _, cur := range current.Benchmarks {
		key := benchKey(cur)
		seen[key] = true
		old, ok := base[key]
		if !ok {
			// Absent from the baseline: a benchmark added by this PR.
			// Report its absolute numbers — there is nothing to diff
			// against — and never fail on it; the next bench-json run
			// folds it into the committed baseline.
			newCount++
			fmt.Fprintf(tw, "%s\t%.0f ns (new)\t%.0f B\t%.0f allocs\n",
				cur.Name, cur.NsPerOp, cur.BytesPerOp, cur.AllocsPerOp)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", cur.Name,
			fmtDelta(old.NsPerOp, cur.NsPerOp),
			fmtDelta(old.BytesPerOp, cur.BytesPerOp),
			fmtDelta(old.AllocsPerOp, cur.AllocsPerOp))
		if pct, ok := pctDelta(old.AllocsPerOp, cur.AllocsPerOp); (ok && pct > tolerance) ||
			(!ok && cur.AllocsPerOp > 0) {
			regressed = append(regressed, fmt.Sprintf("%s (%.0f -> %.0f allocs/op)",
				cur.Name, old.AllocsPerOp, cur.AllocsPerOp))
		}
	}
	for _, b := range baseline.Benchmarks {
		if !seen[benchKey(b)] {
			fmt.Fprintf(tw, "%s\t(only in baseline)\t\t\n", b.Name)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if newCount > 0 {
		fmt.Fprintf(w, "%d new benchmark(s) not in baseline (reported only, never failing)\n", newCount)
	}

	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond tolerance (allocs/op > %.1f%%): %v",
			len(regressed), tolerance, regressed)
	}
	return nil
}
