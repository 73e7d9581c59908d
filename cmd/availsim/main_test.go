package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynvote/internal/experiment"
)

func TestRunSingleCase(t *testing.T) {
	err := run([]string{"-alg", "ykd", "-procs", "16", "-changes", "4", "-rate", "2", "-runs", "20"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunCascading(t *testing.T) {
	err := run([]string{"-alg", "mr1p", "-procs", "16", "-changes", "4", "-rate", "2",
		"-runs", "10", "-mode", "cascading", "-check"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPairedMode(t *testing.T) {
	err := run([]string{"-alg", "ykd", "-alg2", "dfls", "-procs", "16",
		"-changes", "4", "-rate", "2", "-runs", "10"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithSizes(t *testing.T) {
	err := run([]string{"-alg", "ykd", "-procs", "16", "-changes", "2", "-rate", "2",
		"-runs", "10", "-sizes"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := [][]string{
		{"-alg", "nonsense"},
		{"-alg", "ykd", "-mode", "sideways"},
		{"-alg", "ykd", "-alg2", "nonsense"},
		{"-definitely-not-a-flag"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted bad input", args)
		}
	}
}

func TestBadAlgErrorListsChoices(t *testing.T) {
	err := run([]string{"-alg", "nonsense", "-runs", "1"})
	if err == nil || !strings.Contains(err.Error(), "ykd") {
		t.Errorf("error should list valid algorithms: %v", err)
	}
}

func TestRunWritesMetricsReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	err := run([]string{"-alg", "ykd", "-procs", "16", "-changes", "4", "-rate", "2",
		"-runs", "15", "-metrics-out", path})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report experiment.RunReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if report.Tool != "availsim" || len(report.Cases) != 1 {
		t.Fatalf("unexpected report shape: tool=%q cases=%d", report.Tool, len(report.Cases))
	}
	c := report.Cases[0]
	if c.Algorithm != "ykd" || c.Runs != 15 || c.Changes != 4 {
		t.Errorf("case mismatch: %+v", c)
	}
	if report.Metrics == nil {
		t.Fatal("report carries no metrics snapshot")
	}
	if got := report.Metrics.Counters["sim_runs_total"]; got != 15 {
		t.Errorf("sim_runs_total = %d, want 15", got)
	}
	if report.WallSeconds <= 0 {
		t.Error("wall time not recorded")
	}
	if report.GeneratedAt.IsZero() || report.Seed != 20000505 {
		t.Errorf("shared report header not filled in: %+v", report.ReportHeader)
	}
}

func TestRunScalingStudy(t *testing.T) {
	err := run([]string{"-scaling", "-changes", "2", "-rate", "2", "-runs", "3"})
	if err != nil {
		t.Fatal(err)
	}
}
