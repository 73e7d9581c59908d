package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, rep *Report) string {
	t.Helper()
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func bench(name string, ns, bytesPerOp, allocs float64) Benchmark {
	return Benchmark{
		Name: name, Package: "dynvote", Iterations: 1,
		NsPerOp: ns, BytesPerOp: bytesPerOp, AllocsPerOp: allocs,
	}
}

func TestCompareWithinTolerance(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{bench("BenchmarkX-8", 100, 1000, 100)}}
	cur := &Report{Benchmarks: []Benchmark{bench("BenchmarkX-8", 90, 1010, 101)}}
	var out bytes.Buffer
	if err := compareReports(base, cur, 2, &out); err != nil {
		t.Fatalf("1%% allocs growth under 2%% tolerance should pass: %v", err)
	}
	got := out.String()
	for _, want := range []string{"BenchmarkX-8", "-10.0%", "+1.0%"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestCompareRegressionFails(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{
		bench("BenchmarkX-8", 100, 1000, 100),
		bench("BenchmarkY-8", 100, 1000, 50),
	}}
	cur := &Report{Benchmarks: []Benchmark{
		bench("BenchmarkX-8", 100, 1000, 150), // +50% allocs: regression
		bench("BenchmarkY-8", 100, 1000, 50),
	}}
	var out bytes.Buffer
	err := compareReports(base, cur, 2, &out)
	if err == nil {
		t.Fatalf("+50%% allocs should fail; output:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkX-8") {
		t.Errorf("error should name the regressed benchmark: %v", err)
	}
	if strings.Contains(err.Error(), "BenchmarkY-8") {
		t.Errorf("error names an unregressed benchmark: %v", err)
	}
}

// TestCompareNeverGatesTime: ns/op is reported, not gated.
func TestCompareNeverGatesTime(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{bench("BenchmarkX-8", 200000, 1000, 100)}}
	cur := &Report{Benchmarks: []Benchmark{bench("BenchmarkX-8", 600000, 1000, 100)}} // 3x slower
	var out bytes.Buffer
	if err := compareReports(base, cur, 2, &out); err != nil {
		t.Fatalf("a slowdown at equal allocs/op must pass: %v", err)
	}
	if !strings.Contains(out.String(), "+200.0%") {
		t.Errorf("the ns/op delta should still be printed:\n%s", out.String())
	}
}

func TestCompareZeroBaselineAllocs(t *testing.T) {
	// A benchmark that was allocation-free and now allocates has no
	// finite percentage delta; it must still be caught.
	base := &Report{Benchmarks: []Benchmark{bench("BenchmarkZ-8", 100, 0, 0)}}
	cur := &Report{Benchmarks: []Benchmark{bench("BenchmarkZ-8", 100, 16, 1)}}
	var out bytes.Buffer
	if err := compareReports(base, cur, 50, &out); err == nil {
		t.Fatalf("0 -> 1 allocs/op should fail regardless of tolerance; output:\n%s", out.String())
	}
}

func TestCompareNewAndMissingBenchmarks(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{
		bench("BenchmarkOld-8", 100, 1000, 100),
		bench("BenchmarkKept-8", 100, 1000, 100),
	}}
	cur := &Report{Benchmarks: []Benchmark{
		bench("BenchmarkKept-8", 100, 1000, 100),
		bench("BenchmarkNew-8", 100, 1000, 100),
	}}
	var out bytes.Buffer
	if err := compareReports(base, cur, 2, &out); err != nil {
		t.Fatalf("suite membership changes alone must not fail: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "BenchmarkNew-8") || !strings.Contains(got, "(new)") {
		t.Errorf("output should flag the new benchmark:\n%s", got)
	}
	// The new benchmark's absolute numbers are reported — there is no
	// baseline to diff against, but the values still belong in the diff.
	if !strings.Contains(got, "100 ns (new)") || !strings.Contains(got, "100 allocs") {
		t.Errorf("output should report the new benchmark's values:\n%s", got)
	}
	if !strings.Contains(got, "1 new benchmark(s) not in baseline") {
		t.Errorf("output should summarize new benchmarks:\n%s", got)
	}
	if !strings.Contains(got, "BenchmarkOld-8") || !strings.Contains(got, "(only in baseline)") {
		t.Errorf("output should flag the removed benchmark:\n%s", got)
	}
}

// TestRunCompareMode drives the full CLI path: bench text on stdin,
// -baseline pointing at a committed report.
func TestRunCompareMode(t *testing.T) {
	path := writeBaseline(t, &Report{Benchmarks: []Benchmark{bench("BenchmarkX-8", 100, 1000, 100)}})
	in := strings.NewReader("pkg: dynvote\nBenchmarkX-8   10   95 ns/op   980 B/op   90 allocs/op\n")
	var out bytes.Buffer
	if err := run([]string{"-baseline", path}, in, &out); err != nil {
		t.Fatalf("improvement should pass: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "-10.0%") {
		t.Errorf("expected allocs delta in output:\n%s", out.String())
	}

	in = strings.NewReader("pkg: dynvote\nBenchmarkX-8   10   95 ns/op   980 B/op   200 allocs/op\n")
	out.Reset()
	if err := run([]string{"-baseline", path, "-tolerance", "5"}, in, &out); err == nil {
		t.Fatalf("doubled allocs should fail\n%s", out.String())
	}
}
