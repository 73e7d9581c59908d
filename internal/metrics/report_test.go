package metrics_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dynvote/internal/metrics"
)

// TestWriteReport: a report embedding the header encodes its keys at
// the top level, indented, with one trailing newline; the metrics key
// appears only for an instrumented session, and the file variant writes
// the same bytes.
func TestWriteReport(t *testing.T) {
	type report struct {
		metrics.ReportHeader
		Runs int `json:"runs"`
	}
	rep := report{ReportHeader: metrics.ReportHeader{Tool: "test", Seed: 3}, Runs: 5}
	rep.Finish(time.Now().Add(-time.Second), nil)
	var buf bytes.Buffer
	if err := metrics.WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "{\n  \"tool\": \"test\",\n") || !strings.HasSuffix(out, "\n}\n") {
		t.Errorf("not indented JSON with a trailing newline:\n%s", out)
	}
	if strings.Contains(out, `"metrics"`) {
		t.Errorf("uninstrumented report carries metrics:\n%s", out)
	}
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"tool", "generated_at", "seed", "wall_seconds", "runs"} {
		if _, ok := back[key]; !ok {
			t.Errorf("key %q not at the top level: %v", key, back)
		}
	}
	if back["wall_seconds"].(float64) < 1 {
		t.Errorf("wall_seconds = %v, want the second since start", back["wall_seconds"])
	}

	reg := metrics.NewRegistry()
	reg.Counter("x_total", "").Inc()
	rep.Finish(time.Now(), reg)
	path := filepath.Join(t.TempDir(), "r.json")
	if err := metrics.WriteReportFile(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"x_total": 1`) {
		t.Errorf("instrumented report lacks the snapshot:\n%s", data)
	}
}
