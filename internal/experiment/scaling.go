package experiment

import (
	"fmt"
	"strings"
	"time"

	"dynvote/internal/algset"
)

// This file implements the N-scaling study, the beyond-thesis
// extension of the §4.1 scaling check. The thesis verifies that the
// Figure 4-2 workload gives almost identical availability at 32, 48
// and 64 processes; the study here carries the same measurement out to
// 1024 processes — past the 256-process inline-set boundary, into the
// wide-word range the kilo-process pass keeps allocation-free. Related
// work studies voting-based membership at these scales, and
// availability staying flat in N is what justifies reading the
// thesis's 64-process figures as general.

// ScalingStudySpec parameterizes the N-scaling sweep: the thesis
// scaling check's workload (YKD, fresh starts) measured across system
// sizes at a few change rates.
type ScalingStudySpec struct {
	// Sizes are the system sizes to measure. Empty means the full
	// sweep: the thesis's 32/48/64 check extended out to 1024.
	Sizes []int
	// Rates are the mean-rounds-between-changes points measured per
	// size (default 1, 4, 8 — the rates the thesis quotes in §4.1).
	Rates []float64
	// Changes per run (default 6, the Figure 4-2 workload).
	Changes int
	// Runs per (size, rate) case (default 1000) at sizes up to 256.
	// Above 256 the per-run cost grows with the O(N²) message floor,
	// so the budget is divided by (N/256)² — availability percentages
	// converge fast enough that the reduced sample stays meaningful,
	// and the sweep's wall time stays roughly flat per size.
	Runs int
	// Seed roots all randomness (default the thesis seed).
	Seed int64
	// Progress, when non-nil, receives one line per finished case.
	Progress func(string)
}

// Defaults fills unset fields with the standard sweep parameters.
func (s ScalingStudySpec) Defaults() ScalingStudySpec {
	if len(s.Sizes) == 0 {
		s.Sizes = []int{32, 48, 64, 96, 128, 192, 256, 512, 1024}
	}
	if len(s.Rates) == 0 {
		s.Rates = []float64{1, 4, 8}
	}
	if s.Changes == 0 {
		s.Changes = 6
	}
	if s.Runs == 0 {
		s.Runs = 1000
	}
	if s.Seed == 0 {
		s.Seed = 20000505
	}
	return s
}

// runsFor returns the run budget for one system size: the configured
// Runs up to 256 processes, divided by (n/256)² beyond — floored at 25
// samples but never raised above the configured budget.
func (s ScalingStudySpec) runsFor(n int) int {
	if n <= 256 {
		return s.Runs
	}
	f := (n / 256) * (n / 256)
	r := s.Runs / f
	if r < 25 {
		r = 25
	}
	if r > s.Runs {
		r = s.Runs
	}
	return r
}

// ScalingRow is one system size's outcome: one CaseResult per rate in
// the spec's Rates, in order.
type ScalingRow struct {
	Procs  int
	Points []CaseResult
}

// RunScalingStudy measures YKD availability at every (size, rate) pair
// of the spec. Each case runs under the same seed, so a row's runs at
// different sizes share nothing but the workload shape — exactly like
// the thesis's scaling check.
func RunScalingStudy(spec ScalingStudySpec) ([]ScalingRow, error) {
	spec = spec.Defaults()
	ykdF := algset.Availability()[0]
	var cells []cell
	for _, n := range spec.Sizes {
		for _, rate := range spec.Rates {
			cells = append(cells, caseCell(CaseSpec{
				Factory: ykdF, Procs: n, Changes: spec.Changes,
				MeanRounds: rate, Runs: spec.runsFor(n), Mode: FreshStart, Seed: spec.Seed,
			}))
		}
	}
	res, _, err := runCases(cells, func(c int, r CaseResult, _ time.Duration) {
		if spec.Progress != nil {
			spec.Progress(fmt.Sprintf("scaling: %d procs, rate %g: %s", cells[c].spec.Procs, r.MeanRounds, r.Availability))
		}
	})
	if err != nil {
		return nil, fmt.Errorf("scaling study: %w", err)
	}
	rows, k := make([]ScalingRow, 0, len(spec.Sizes)), len(spec.Rates)
	for i, n := range spec.Sizes {
		rows = append(rows, ScalingRow{Procs: n, Points: res[i*k : (i+1)*k : (i+1)*k]})
	}
	return rows, nil
}

// RenderScalingTable renders the study as a text table: one row per
// system size, one column per rate.
func RenderScalingTable(spec ScalingStudySpec, rows []ScalingRow) string {
	spec = spec.Defaults()
	var b strings.Builder
	fmt.Fprintf(&b, "N-scaling study: %d fresh changes, %d runs/case (ykd availability)\n\n",
		spec.Changes, spec.Runs)
	fmt.Fprintf(&b, "%-8s", "procs")
	for _, r := range spec.Rates {
		fmt.Fprintf(&b, " %13s", fmt.Sprintf("rate=%g", r))
	}
	// The runs column makes the divided budgets past 256 processes
	// visible next to the percentages they qualify.
	fmt.Fprintf(&b, " %8s\n", "runs")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-8d", row.Procs)
		for _, p := range row.Points {
			fmt.Fprintf(&b, " %12.1f%%", p.Availability.Percent())
		}
		runs := 0
		if len(row.Points) > 0 {
			runs = row.Points[0].Availability.Runs
		}
		fmt.Fprintf(&b, " %8d\n", runs)
	}
	return b.String()
}

// RenderScalingCSV renders the same data as CSV with a header row:
// procs, then one availability column per rate.
func RenderScalingCSV(spec ScalingStudySpec, rows []ScalingRow) string {
	spec = spec.Defaults()
	var b strings.Builder
	b.WriteString("procs")
	for _, r := range spec.Rates {
		fmt.Fprintf(&b, ",rate_%g", r)
	}
	b.WriteByte('\n')
	for _, row := range rows {
		fmt.Fprintf(&b, "%d", row.Procs)
		for _, p := range row.Points {
			fmt.Fprintf(&b, ",%.2f", p.Availability.Percent())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
