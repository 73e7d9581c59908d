package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// ReportHeader is what every tool's JSON report starts with: the tool
// that wrote it, when, from which seed, the session's wall time and,
// when the session was instrumented, the registry's final snapshot.
// A report type embeds it, so these keys sit at the report's top level.
type ReportHeader struct {
	Tool        string    `json:"tool"`
	GeneratedAt time.Time `json:"generated_at"`
	Seed        int64     `json:"seed"`
	WallSeconds float64   `json:"wall_seconds"`
	// Metrics is nil when the session ran uninstrumented.
	Metrics *Snapshot `json:"metrics,omitempty"`
}

// Finish stamps the header with the wall time since start and, when
// reg is non-nil, reg's snapshot.
func (h *ReportHeader) Finish(start time.Time, reg *Registry) {
	h.GeneratedAt = time.Now().UTC()
	h.WallSeconds = time.Since(start).Seconds()
	if reg != nil {
		s := reg.Snapshot()
		h.Metrics = &s
	}
}

// WriteReport writes report to w as indented JSON with a trailing
// newline. It is the one encoder behind every tool's JSON output.
func WriteReport(w io.Writer, report any) error {
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: encode report: %w", err)
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// WriteReportFile writes report to the file at path through WriteReport.
func WriteReportFile(path string, report any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteReport(f, report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
