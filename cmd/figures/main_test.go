package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dynvote/internal/experiment"
)

func TestRunSingleAvailabilityFigure(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-fig", "4-1", "-procs", "16", "-runs", "10",
		"-rates", "0,4", "-out", dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig4-1.csv")); err != nil {
		t.Errorf("CSV not written: %v", err)
	}
}

func TestRunAmbiguityFigureWritesBothCSVs(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-fig", "4-7", "-procs", "16", "-runs", "8",
		"-rates", "2", "-out", dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"fig4-7-changes2.csv", "fig4-8-changes2.csv",
		"fig4-7-changes12.csv", "fig4-8-changes12.csv",
	} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s not written: %v", name, err)
		}
	}
}

func TestRunExtrasOnly(t *testing.T) {
	err := run([]string{"-extras", "-procs", "16", "-runs", "8"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := [][]string{
		{"-fig", "9-9"},
		{"-rates", "abc"},
		{"-no-such-flag"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted bad input", args)
		}
	}
}

func TestRunFigureWritesMetricsReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	err := run([]string{"-fig", "4-1", "-procs", "16", "-runs", "8",
		"-rates", "0,4", "-metrics-out", path})
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
	if report.Tool != "figures" {
		t.Errorf("tool = %q, want figures", report.Tool)
	}
	if h := report.ReportHeader; h.GeneratedAt.IsZero() || h.Seed != 20000505 || h.WallSeconds <= 0 {
		t.Errorf("shared report header not filled in: %+v", h)
	}
	// Figure 4-1 sweeps every availability algorithm over both rates.
	if len(report.Cases) == 0 || len(report.Cases)%2 != 0 {
		t.Errorf("got %d cases, want a positive multiple of 2 rates", len(report.Cases))
	}
	if report.Metrics == nil || report.Metrics.Counters["sweep_cases_total"] != int64(len(report.Cases)) {
		t.Errorf("sweep_cases_total should match the %d reported cases: %+v",
			len(report.Cases), report.Metrics)
	}
}

func TestRunScalingWritesFigure(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-scaling", "-runs", "3", "-out", dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"scaling.csv", "scaling.svg"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s not written: %v", name, err)
		}
	}
}
