package campaign

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"dynvote/internal/metrics"
)

// TestReportRoundTrip pins the report format — the new execution
// accounting (per-chain wall time, requeue counts, the aborted marker)
// must appear under stable JSON keys alongside the historical fields —
// and proves encoding/json decodes what the shared report encoder wrote.
func TestReportRoundTrip(t *testing.T) {
	res := &Result{
		Algorithms: []AlgorithmResult{{
			Algorithm: "ykd", Changes: 240, Runs: 20, Formed: 18,
			Assertions: 999, Elapsed: 2 * time.Second,
			Chains: []ChainStats{
				{Algorithm: "ykd", Chain: 0, Changes: 120, Runs: 10, Formed: 9,
					Assertions: 500, Wall: 900 * time.Millisecond},
				{Algorithm: "ykd", Chain: 1, Changes: 120, Runs: 10, Formed: 9,
					Assertions: 499, Wall: 1100 * time.Millisecond, Requeued: 2},
			},
		}},
		Aborted: true,
		Elapsed: 2 * time.Second,
	}
	cfg := Config{Seed: 7, Procs: 8, Changes: 240, Segment: 12, Rate: 1.5, Chains: 2}
	rep := NewReport("quorumcheck-test", cfg, res, 3, errors.New("boom"))

	if rep.Requeued != 2 {
		t.Errorf("Report.Requeued = %d, want the per-chain sum 2", rep.Requeued)
	}
	if !rep.Aborted {
		t.Error("Report.Aborted not carried over from the result")
	}

	path := t.TempDir() + "/report.json"
	if err := metrics.WriteReportFile(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Format pin: CI keys on these literal names.
	for _, key := range []string{
		`"tool"`, `"seed"`, `"workers"`, `"wall_seconds"`, `"requeued"`,
		`"aborted"`, `"violation"`, `"availability_pct"`, `"chain"`,
	} {
		if !strings.Contains(string(data), key) {
			t.Errorf("report JSON missing key %s:\n%.400s", key, data)
		}
	}

	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.GeneratedAt.IsZero() || back.Seed != 7 || back.WallSeconds != 2 {
		t.Errorf("shared header not round-tripped: %+v", back.ReportHeader)
	}
	if back.Tool != "quorumcheck-test" || back.Workers != 3 ||
		back.Requeued != 2 || !back.Aborted || back.Violation != "boom" {
		t.Errorf("round-tripped header fields mangled: %+v", back)
	}
	if len(back.Algorithms) != 1 || len(back.Algorithms[0].Chains) != 2 {
		t.Fatalf("round-tripped algorithms mangled: %+v", back.Algorithms)
	}
	c1 := back.Algorithms[0].Chains[1]
	if c1.WallSeconds != 1.1 || c1.Requeued != 2 || c1.Assertions != 499 {
		t.Errorf("round-tripped chain accounting mangled: %+v", c1)
	}
}
