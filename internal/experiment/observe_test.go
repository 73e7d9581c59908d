package experiment_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"

	"dynvote/internal/core"
	"dynvote/internal/experiment"
	"dynvote/internal/majority"
	"dynvote/internal/metrics"
	"dynvote/internal/ykd"
)

// TestSweepProgressOncePerCase: the progress sink receives exactly one
// line per completed case, with ordinals 1..N each appearing once even
// though workers finish in arbitrary order. The sink appends to a
// plain slice with no locking of its own — under -race this also
// proves RunSweep serializes emission as documented.
func TestSweepProgressOncePerCase(t *testing.T) {
	var lines []string
	spec := experiment.SweepSpec{
		Factories: []core.Factory{ykd.Factory(ykd.VariantYKD), majority.Factory()},
		Procs:     8, Changes: 2, Rates: []float64{0, 2, 4}, Runs: 10,
		Mode: experiment.FreshStart, Seed: 11,
		Progress: func(s string) { lines = append(lines, s) },
	}
	if _, err := experiment.RunSweep(spec); err != nil {
		t.Fatal(err)
	}

	total := len(spec.Factories) * len(spec.Rates)
	if len(lines) != total {
		t.Fatalf("got %d progress lines, want %d:\n%v", len(lines), total, lines)
	}
	re := regexp.MustCompile(`^\[(\d+)/` + strconv.Itoa(total) + `\] `)
	seen := make(map[int]bool)
	for _, l := range lines {
		m := re.FindStringSubmatch(l)
		if m == nil {
			t.Fatalf("malformed progress line %q", l)
		}
		k, _ := strconv.Atoi(m[1])
		if seen[k] {
			t.Errorf("ordinal %d emitted twice", k)
		}
		seen[k] = true
	}
	for k := 1; k <= total; k++ {
		if !seen[k] {
			t.Errorf("ordinal %d never emitted", k)
		}
	}
}

// TestSweepMetrics: an instrumented sweep records per-case wall time,
// the worker gauge, and the drivers' run counters in one registry.
func TestSweepMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	spec := experiment.SweepSpec{
		Factories: []core.Factory{ykd.Factory(ykd.VariantYKD)},
		Procs:     8, Changes: 2, Rates: []float64{0, 3}, Runs: 5,
		Mode: experiment.FreshStart, Seed: 3, Metrics: reg,
	}
	if _, err := experiment.RunSweep(spec); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	cases := int64(len(spec.Factories) * len(spec.Rates))
	if got := s.Counters["sweep_cases_total"]; got != cases {
		t.Errorf("sweep_cases_total = %d, want %d", got, cases)
	}
	if h := s.Histograms["sweep_case_seconds"]; h.Count != cases {
		t.Errorf("sweep_case_seconds count = %d, want %d", h.Count, cases)
	}
	if g := s.Gauges["sweep_workers"]; g < 1 || g > cases {
		t.Errorf("sweep_workers = %d, want 1..%d", g, cases)
	}
	if got := s.Counters["sim_runs_total"]; got != cases*int64(spec.Runs) {
		t.Errorf("sim_runs_total = %d, want %d", got, cases*int64(spec.Runs))
	}
}

// TestRunReportRoundTrip: a report built from real results survives a
// JSON encode/decode cycle intact — the acceptance contract for
// -metrics-out consumers.
func TestRunReportRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry()
	spec := experiment.CaseSpec{
		Factory: ykd.Factory(ykd.VariantYKD),
		Procs:   8, Changes: 2, MeanRounds: 3, Runs: 20,
		Mode: experiment.FreshStart, Seed: 17, Metrics: reg,
	}
	res, err := experiment.RunCase(spec)
	if err != nil {
		t.Fatal(err)
	}

	report := experiment.RunReport{
		ReportHeader: metrics.ReportHeader{Tool: "test", Seed: spec.Seed},
		Procs:        spec.Procs, Runs: spec.Runs, Mode: spec.Mode.String(),
	}
	report.AddCase(res, spec.Changes)
	report.Finish(time.Now().Add(-time.Second), reg)

	if report.WallSeconds <= 0 {
		t.Error("Finish did not record wall time")
	}
	if report.Metrics == nil {
		t.Fatal("Finish did not attach the metrics snapshot")
	}

	data, err := json.Marshal(&report)
	if err != nil {
		t.Fatal(err)
	}
	var back experiment.RunReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(report, back) {
		t.Errorf("report did not round-trip:\n got %+v\nwant %+v", back, report)
	}

	c := report.Cases[0]
	if c.Algorithm != res.Algorithm || c.Runs != spec.Runs || c.Changes != spec.Changes {
		t.Errorf("case report mismatch: %+v", c)
	}
	if c.AvailabilityPct < c.WilsonLowPct || c.AvailabilityPct > c.WilsonHighPct {
		t.Errorf("availability %.2f outside its own interval [%.2f, %.2f]",
			c.AvailabilityPct, c.WilsonLowPct, c.WilsonHighPct)
	}
}

// TestRunReportWriteFile exercises the file-writing path end to end.
func TestRunReportWriteFile(t *testing.T) {
	report := experiment.RunReport{ReportHeader: metrics.ReportHeader{Tool: "availsim", Seed: 1}, Mode: "fresh"}
	report.Finish(time.Now(), nil)
	path := filepath.Join(t.TempDir(), "report.json")
	if err := metrics.WriteReportFile(path, &report); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back experiment.RunReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("written report is not valid JSON: %v", err)
	}
	if back.Tool != "availsim" {
		t.Errorf("tool = %q, want availsim", back.Tool)
	}
	if back.Metrics != nil {
		t.Error("uninstrumented report should omit metrics")
	}
}
